"""Golden outputs of every subcommand on every fixture.

Each case pins the exit code, stdout without its `decided in` timing line,
and the file written to `-o`, with the output path replaced by OUT.  The
recorded outputs live in `cli_golden.json`; to re-record them after an
intended output change, run `PYTHONPATH=src python3 tests/test_cli_golden.py`
from the repository root and review the diff.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from wheelerkit.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden.json"
OUT = "OUT"

AUTOMATA = sorted(p.name for p in FIXTURES.glob("*.aut"))
BETWEENNESS = sorted(p.name for p in FIXTURES.glob("*.bet"))

# (argv before the file, argv after it, writes OUT, input files)
COMMANDS = (
    [(["check-dfa"], [], False, AUTOMATA),
     (["check-nfa"], [], False, AUTOMATA)]
    + [(["check-lang"], ["--method", m] + nfa, False, AUTOMATA)
       for m in ("witness", "construct", "both") for nfa in ([], ["--nfa"])]
    + [(["check-lang"], ["-o", OUT], True, AUTOMATA),
       (["min-wdfa"], ["-o", OUT], True, AUTOMATA),
       (["check-gw"], ["--automaton"], False, AUTOMATA),
       (["check-gw"], ["--language"], False, AUTOMATA),
       (["export-dot"], [], False, AUTOMATA),
       (["export-dot"], ["--wheeler"], False, AUTOMATA),
       (["export-dot"], ["-o", OUT], True, AUTOMATA),
       (["solve-betweenness"], [], False, BETWEENNESS),
       (["reduce", "universality"], ["-o", OUT], True, AUTOMATA),
       (["reduce", "nfa-to-gw"], ["-o", OUT], True, AUTOMATA),
       (["reduce", "betweenness"], ["-o", OUT], True, BETWEENNESS)]
)

CASES = [(before, name, after, writes)
         for before, after, writes, files in COMMANDS for name in files]


def case_id(before, name, after):
    return " ".join(before + [name] + after)


def run_case(before, name, after, writes):
    """Run one case in process; returns its exit code, stdout and file."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = str(pathlib.Path(tmp) / "out")
        argv = (before + [str(FIXTURES / name)]
                + [out_path if arg == OUT else arg for arg in after])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        written = None
        if writes and pathlib.Path(out_path).exists():
            written = pathlib.Path(out_path).read_text().replace(out_path, OUT)
    stdout = "".join(line for line in out.getvalue().splitlines(keepends=True)
                     if not line.startswith("decided in "))
    stdout = stdout.replace(out_path, OUT).replace(str(FIXTURES / name), name)
    return {"exit": code, "stdout": stdout, "file": written}


def load_golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("before,name,after,writes", CASES,
                         ids=[case_id(b, n, a) for b, n, a, _ in CASES])
def test_cli_output_matches_golden(before, name, after, writes):
    golden = load_golden()
    assert run_case(before, name, after, writes) == golden[case_id(before, name, after)]


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(case_id(b, n, a) for b, n, a, _ in CASES)


if __name__ == "__main__":
    record = {case_id(b, n, a): run_case(b, n, a, w) for b, n, a, w in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} cases in {GOLDEN}")
