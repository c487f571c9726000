import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fgquad import cli
from fgquad.cli import build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_INVOCATIONS = {
    "classify_wicks_exhaustive": ["classify", "--delta", "1", "--epsilon", "-1", "--theta", "-1", "--class", "nonfaithful", "--word", "conj(a) conj(A)"],
    "classify_table1_row1": ["classify", "--delta", "1", "--epsilon", "1", "--theta", "-1", "--class", "faithful", "--word", "a b a"],
    "classify_mixed_exists": ["classify", "--delta", "1", "--epsilon", "-1", "--theta", "-1", "--class", "nonfaithful", "--word", "R b b"],
    "classify_second_derived": ["classify", "--delta", "-1", "--epsilon", "-1", "--theta", "-1", "--class", "nonfaithful", "--word", "conj(b)"],
    "classify_abelian": ["classify", "--delta", "1", "--epsilon", "-1", "--theta", "1", "--class", "nonfaithful", "--word", "a b"],
    "verify_tables": ["verify-tables"],
    "wicks_example": ["wicks", "--delta", "1", "--epsilon", "-1", "--theta", "-1", "--class", "nonfaithful", "--word", "conj(a) conj(A)"],
    "first_derived_beta_square": ["first-derived", "--delta", "1", "--epsilon", "-1", "--theta", "-1", "--class", "nonfaithful", "--word", "b b", "--enum-bound", "1"],
    "second_derived_trivial": ["second-derived", "--delta", "-1", "--epsilon", "1", "--theta", "-1", "--class", "nonfaithful", "--word", "conj(a) conj(A)"],
    "qn_conjugate": ["qn", "--epsilon", "-1", "--word", "conj(a) R"],
    "canon_klein": ["canon", "--epsilon", "-1", "--word", "b a^2 B a b"],
    "qn_text": ["qn", "--epsilon", "-1", "--word", "conj(a) R", "--output", "text"],
    "classify_batch_text": ["classify", "--delta", "-1", "--epsilon", "-1", "--theta", "-1", "--class", "faithful", "--batch", str(GOLDEN_DIR / "classify_batch_text.txt"), "--output", "text"],
    "classify_original_batch": ["classify", "--delta", "-1", "--epsilon", "-1", "--theta", "-1", "--class", "faithful", "--frame", "original", "--batch", str(GOLDEN_DIR / "classify_original_batch.txt")],
    "wicks_original": ["wicks", "--delta", "-1", "--epsilon", "-1", "--theta", "-1", "--class", "faithful", "--frame", "original", "--word", "a a"],
    "second_derived_window": ["second-derived", "--delta", "1", "--epsilon", "-1", "--theta", "-1", "--class", "nonfaithful", "--word", "b^2 conj(a) conj(b)"],
}


# the budget flags each subcommand takes: the budgets its record reads
BUDGET_FLAGS = {
    "classify": ["--wicks-len"],
    "wicks": ["--wicks-len"],
    "first-derived": ["--enum-bound"],
    "second-derived": [],
    "verify-tables": [],
    "qn": [],
    "canon": [],
}

FULL_SPEC = ["--delta", "1", "--epsilon", "-1", "--theta", "-1", "--class", "nonfaithful", "--word", "conj(a)"]
COMMAND_ARGS = {
    "classify": FULL_SPEC,
    "wicks": FULL_SPEC,
    "first-derived": FULL_SPEC,
    "second-derived": FULL_SPEC,
    "qn": ["--epsilon", "-1", "--word", "R"],
    "canon": ["--epsilon", "-1", "--word", "R"],
}

# each budget flag's Budgets field
BUDGET_FIELDS = {"--wicks-len": "wicks_len", "--enum-bound": "enum_bound"}

# flags that no command takes: the natural translation window is complete,
# so nothing widens it
REMOVED_FLAGS = ["--l-window"]


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
    def test_byte_identical(self, name):
        code, out = run_cli(GOLDEN_INVOCATIONS[name])
        assert code == 0
        golden = (GOLDEN_DIR / f"{name}.jsonl").read_text()
        assert out == golden

    def test_sixteen_invocations(self):
        assert len(GOLDEN_INVOCATIONS) == 16


class TestCliBehavior:
    def test_classify_example_verdict(self):
        code, out = run_cli(GOLDEN_INVOCATIONS["classify_wicks_exhaustive"])
        record = json.loads(out)
        assert record["verdict"] == "not_exists"
        assert record["reason"] == "wicks_exhaustive"
        assert record["vbar"] == {"r": 0, "s": 0}

    def test_qn_example(self):
        code, out = run_cli(GOLDEN_INVOCATIONS["qn_conjugate"])
        assert json.loads(out)["qn"] == "{(0,0): 1, (1,0): 1}"

    def test_verify_tables_summary(self):
        code, out = run_cli(["verify-tables"])
        record = json.loads(out)
        assert code == 0 and record["failures"] == []

    def test_batch_preserves_order(self, tmp_path):
        batch = tmp_path / "words.txt"
        batch.write_text("a\nb b\nconj(a) conj(A)\n")
        code, out = run_cli(
            ["classify", "--delta", "1", "--epsilon", "-1", "--theta", "-1",
             "--class", "nonfaithful", "--batch", str(batch)]
        )
        assert code == 0
        inputs = [json.loads(line)["input"] for line in out.splitlines()]
        assert inputs == ["a", "b b", "conj(a) conj(A)"]

    @pytest.mark.parametrize("blank_lines", [0, 1])
    def test_bad_batch_line_is_an_error_record(self, tmp_path, blank_lines):
        batch = tmp_path / "words.txt"
        batch.write_text("a\n" + "\n" * blank_lines + "a ?\nb b\n")
        code, out = run_cli(
            ["classify", "--delta", "1", "--epsilon", "-1", "--theta", "-1",
             "--class", "nonfaithful", "--batch", str(batch)]
        )
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 1
        assert [record["input"] for record in records] == ["a", "a ?", "b b"]
        assert records[1] == {"input": "a ?", "line": 2 + blank_lines, "error": "unexpected character '?' (at offset 2)"}
        assert records[0]["verdict"] == "not_exists" and records[2]["verdict"] == "exists"

    def test_memory_error_on_a_batch_line_is_an_error_record(self, monkeypatch, tmp_path):
        classify_record = cli._COMMANDS["classify"].record

        def record(args, text, word):
            if text == "b b":
                raise MemoryError
            return classify_record(args, text, word)

        monkeypatch.setitem(cli._COMMANDS, "classify", cli._COMMANDS["classify"]._replace(record=record))
        batch = tmp_path / "words.txt"
        batch.write_text("a\nb b\nconj(a) conj(A)\n")
        code, out = run_cli(
            ["classify", "--delta", "1", "--epsilon", "-1", "--theta", "-1",
             "--class", "nonfaithful", "--batch", str(batch)]
        )
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 1
        assert records[1] == {"input": "b b", "line": 2, "error": "out of memory"}
        assert records[0]["verdict"] == "not_exists" and records[2]["verdict"] == "not_exists"

    def test_memory_error_on_a_word_is_an_error_line(self, capsys, monkeypatch):
        def record(args, text, word):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "canon", cli._COMMANDS["canon"]._replace(record=record))
        code, out = run_cli(["canon", "--epsilon", "1", "--word", "a"])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["classify", "--word", "a"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["x", "2", "1.0"])
    def test_bad_sign_names_the_flag_and_the_values(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["qn", "--epsilon", value, "--word", "a"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --epsilon: expected +1 or -1\n")

    def test_non_utf8_batch_is_an_unreadable_file(self, capsys, tmp_path):
        batch = tmp_path / "words.bin"
        batch.write_bytes(b"a\n\xff\xfe b\n")
        code, out = run_cli(
            ["classify", "--delta", "1", "--epsilon", "-1", "--theta", "-1",
             "--class", "nonfaithful", "--batch", str(batch)]
        )
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: cannot read {batch}: not UTF-8 text\n"

    def test_deep_nesting_is_a_syntax_error(self, capsys):
        code, out = run_cli(["canon", "--epsilon", "1", "--word", "(" * 2000 + "a" + ")" * 2000])
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: nesting too deep (at offset ") and err.count("\n") == 1

    def test_parse_error_exit_code(self, capsys):
        code, _ = run_cli(["qn", "--epsilon", "-1", "--word", "a ?"])
        assert code == 1

    @pytest.mark.parametrize("text", ["a^\u00b2", "a^\u0663"])
    def test_non_ascii_exponent_is_a_syntax_error(self, capsys, text):
        code, out = run_cli(["canon", "--epsilon", "1", "--word", text])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: expected integer (at offset 2)\n"

    @pytest.mark.parametrize(
        "flag, command", [("--wicks-len", "classify"), ("--wicks-len", "wicks"), ("--enum-bound", "first-derived")]
    )
    def test_zero_budget_is_an_error_line(self, capsys, command, flag):
        code, out = run_cli(
            [command, "--delta", "1", "--epsilon", "-1", "--theta", "-1",
             "--class", "nonfaithful", "--word", "conj(a)", flag, "0"]
        )
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: budgets must be positive\n"

    def test_zero_budget_is_one_error_line_for_a_batch(self, capsys, tmp_path):
        batch = tmp_path / "words.txt"
        batch.write_text("a\nb b\n")
        code, out = run_cli(
            ["classify", "--delta", "1", "--epsilon", "-1", "--theta", "-1",
             "--class", "nonfaithful", "--batch", str(batch), "--wicks-len", "0"]
        )
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: budgets must be positive\n"

    @pytest.mark.parametrize("command", sorted(BUDGET_FLAGS))
    @pytest.mark.parametrize("flag", list(BUDGET_FIELDS) + REMOVED_FLAGS)
    def test_each_command_takes_only_the_budgets_it_reads(self, command, flag):
        argv = [command, *COMMAND_ARGS.get(command, []), flag, "3"]
        if flag in BUDGET_FLAGS[command]:
            assert getattr(build_parser().parse_args(argv), BUDGET_FIELDS[flag]) == 3
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2

    def test_not_mixed_case_exit_code(self, capsys):
        code, _ = run_cli(
            ["second-derived", "--delta", "1", "--epsilon", "1", "--theta", "1",
             "--class", "faithful", "--word", "a"]
        )
        assert code == 1

    def test_text_output_mode(self):
        code, out = run_cli(
            ["qn", "--epsilon", "-1", "--word", "R", "--output", "text"]
        )
        assert code == 0 and "qn=" in out

    def test_canon(self):
        code, out = run_cli(["canon", "--epsilon", "-1", "--word", "b a"])
        assert json.loads(out)["vbar"] == {"r": -1, "s": 1}

    def test_stable_across_runs(self):
        outs = {run_cli(GOLDEN_INVOCATIONS["wicks_example"])[1] for _ in range(3)}
        assert len(outs) == 1
