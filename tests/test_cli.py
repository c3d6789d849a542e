import contextlib
import errno
import io
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import wheelerkit
from wheelerkit import (cli, language, minimize, parse_automaton, language_equal,
                        serialize_automaton)
from wheelerkit.cli import main
from wheelerkit.errors import ConstructionInconsistent
from corpus import random_feasible_dfa, random_trie


def run_cli(*argv):
    """Invoke the CLI in-process; returns (exit code, human lines, block dict, raw)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = out.getvalue()
    if "---" in text:
        human, _, block_text = text.partition("---\n")
        block = {}
        for line in block_text.splitlines():
            key, _, value = line.partition(": ")
            block[key] = value
        return code, human.splitlines(), block, text
    return code, text.splitlines(), {}, text


def test_check_dfa_wheeler(fixtures_dir):
    code, _, block, _ = run_cli("check-dfa", str(fixtures_dir / "wdfa6.aut"))
    assert code == 0
    assert block["verdict"] == "wheeler"
    assert [block[f"order.{i}"] for i in range(6)] == [str(i) for i in range(6)]


def test_check_dfa_not_wheeler(fixtures_dir):
    code, _, block, _ = run_cli("check-dfa", str(fixtures_dir / "notwdfa6.aut"))
    assert code == 1
    assert block["verdict"] == "not-wheeler"
    assert block["violation"] == "condition-ii"
    assert "c" in block["evidence"]


def test_check_nfa(fixtures_dir):
    code, _, block, _ = run_cli("check-nfa", str(fixtures_dir / "wdfa6.aut"))
    assert code == 0 and block["verdict"] == "wheeler"
    code, _, block, _ = run_cli("check-nfa", str(fixtures_dir / "notwdfa6.aut"))
    assert code == 1
    code, *_ = run_cli("check-nfa", str(fixtures_dir / "notwdfa6.aut"), "--budget", "1")
    assert code == 2


def test_check_lang_both_directions(fixtures_dir):
    code, _, block, _ = run_cli("check-lang", str(fixtures_dir / "mind4_nonwheeler.aut"),
                                "--method", "both")
    assert code == 1
    assert (block["mu"], block["nu"], block["gamma"]) == ("a", "b", "c")
    code, _, block, _ = run_cli("check-lang", str(fixtures_dir / "mind4_wheeler.aut"))
    assert code == 0
    assert block["verdict"] == "wheeler" and block["wdfa-states"] == "6"


def test_check_lang_nfa_flag(fixtures_dir):
    code, _, block, _ = run_cli("check-lang", str(fixtures_dir / "wdfa6.aut"), "--nfa")
    assert code == 0 and block["verdict"] == "wheeler"


def test_check_lang_writes_certificate(fixtures_dir, tmp_path, wdfa6):
    out = tmp_path / "cert.aut"
    code, _, block, _ = run_cli("check-lang", str(fixtures_dir / "mind4_wheeler.aut"),
                                "-o", str(out))
    assert code == 0 and block["output"] == str(out)
    assert language_equal(parse_automaton(out.read_text()), wdfa6)


def test_check_lang_caps_flag(fixtures_dir):
    code, _, block, _ = run_cli("check-lang", str(fixtures_dir / "mind4_wheeler.aut"),
                                "--method", "witness",
                                "--caps", "gamma=2,cycle=1,pump=1,paths=10")
    assert code == 2 and block["verdict"] == "bounded-wheeler"


def test_check_lang_caps_left_out_are_sized_from_the_minimum_dfa(tmp_path):
    # three input states, four in the minimum DFA of its determinization
    path = _aut(tmp_path, "alphabet a\nstates 3\ninitial 0\nfinal 2\nedge 0 a 2\n"
                          "edge 1 a 0\nedge 1 a 1\nedge 1 a 2\nedge 2 a 1\n")
    command = ("check-lang", path, "--nfa", "--method", "witness")
    default = run_cli(*command)
    assert default[0] == 0 and default[2]["verdict"] == "wheeler"
    # paths=100000 is the default value, so the verdict must not change
    assert run_cli(*command, "--caps", "paths=100000")[2] == default[2]


def test_min_wdfa_roundtrip(fixtures_dir, tmp_path, wdfa6):
    out = tmp_path / "out.aut"
    code, _, block, _ = run_cli("min-wdfa", str(fixtures_dir / "mind4_wheeler.aut"),
                                "-o", str(out))
    assert code == 0 and block["states"] == "6" and block["certified"] == "true"
    built = parse_automaton(out.read_text())
    assert language_equal(built, wdfa6)
    code, *_ = run_cli("check-dfa", str(out))
    assert code == 0


def test_min_wdfa_rejects_non_wheeler(fixtures_dir, tmp_path):
    code, _, block, _ = run_cli("min-wdfa", str(fixtures_dir / "mind4_nonwheeler.aut"),
                                "-o", str(tmp_path / "no.aut"))
    assert code == 1 and block["verdict"] == "not-wheeler"


def test_check_gw(fixtures_dir):
    code, _, block, _ = run_cli("check-gw", str(fixtures_dir / "notwdfa6.aut"),
                                "--automaton")
    assert code == 0 and block["order"].split() == ["a", "c", "b", "f"]
    code, _, block, _ = run_cli("check-gw", str(fixtures_dir / "starfree_nongw.aut"),
                                "--language")
    assert code == 1 and block["verdict"] == "not-gw"


def test_solve_betweenness(fixtures_dir):
    code, _, block, _ = run_cli("solve-betweenness", str(fixtures_dir / "triple1.bet"))
    assert code == 0 and block["verdict"] == "sat"
    code, _, block, _ = run_cli("solve-betweenness", str(fixtures_dir / "conflict.bet"))
    assert code == 1 and block["verdict"] == "unsat"


# Exit code and stdout recorded with the exhaustive order loops, before the
# searches pruned prefixes; FILE stands for the input path.
PINNED_ORDER_SEARCHES = [
    (('check-gw', 'astar.aut', '--automaton'), 1,
     'FILE: automaton is not generalized Wheeler\n---\nverdict: not-gw\n'),
    (('check-gw', 'astar.aut', '--language'), 0,
     'FILE: language is generalized Wheeler\n---\nverdict: gw\norder: a\n'),
    (('check-gw', 'epsilon_d.aut', '--automaton'), 0,
     'FILE: automaton is generalized Wheeler\n---\nverdict: gw\norder: d\n'),
    (('check-gw', 'epsilon_d.aut', '--language'), 0,
     'FILE: language is generalized Wheeler\n---\nverdict: gw\norder: d\n'),
    (('check-gw', 'epsonly.aut', '--automaton'), 0,
     'FILE: automaton is generalized Wheeler\n---\nverdict: gw\norder: a\n'),
    (('check-gw', 'epsonly.aut', '--language'), 0,
     'FILE: language is generalized Wheeler\n---\nverdict: gw\norder: a\n'),
    (('check-gw', 'mind4_nonwheeler.aut', '--automaton'), 1,
     'FILE: automaton is not generalized Wheeler\n---\nverdict: not-gw\n'),
    (('check-gw', 'mind4_nonwheeler.aut', '--language'), 0,
     'FILE: language is generalized Wheeler\n---\nverdict: gw\norder: a c b f\n'),
    (('check-gw', 'mind4_wheeler.aut', '--automaton'), 1,
     'FILE: automaton is not generalized Wheeler\n---\nverdict: not-gw\n'),
    (('check-gw', 'mind4_wheeler.aut', '--language'), 0,
     'FILE: language is generalized Wheeler\n---\nverdict: gw\norder: a c d f\n'),
    (('check-gw', 'notwdfa6.aut', '--automaton'), 0,
     'FILE: automaton is generalized Wheeler\n---\nverdict: gw\norder: a c b f\n'),
    (('check-gw', 'notwdfa6.aut', '--language'), 0,
     'FILE: language is generalized Wheeler\n---\nverdict: gw\norder: a c b f\n'),
    (('check-gw', 'starfree_nongw.aut', '--automaton'), 1,
     'FILE: automaton is not generalized Wheeler\n---\nverdict: not-gw\n'),
    (('check-gw', 'starfree_nongw.aut', '--language'), 1,
     'FILE: language is not generalized Wheeler\n---\nverdict: not-gw\n'),
    (('check-gw', 'universal1.aut', '--automaton'), 1,
     'FILE: automaton is not generalized Wheeler\n---\nverdict: not-gw\n'),
    (('check-gw', 'universal1.aut', '--language'), 0,
     'FILE: language is generalized Wheeler\n---\nverdict: gw\norder: d\n'),
    (('check-gw', 'wdfa6.aut', '--automaton'), 0,
     'FILE: automaton is generalized Wheeler\n---\nverdict: gw\norder: a c d f\n'),
    (('check-gw', 'wdfa6.aut', '--language'), 0,
     'FILE: language is generalized Wheeler\n---\nverdict: gw\norder: a c d f\n'),
    (('solve-betweenness', 'conflict.bet'), 1,
     'FILE: unsatisfiable\n---\nverdict: unsat\n'),
    (('solve-betweenness', 'triple1.bet'), 0,
     'FILE: satisfiable\n---\nverdict: sat\norder: y1 y2 y3\n'),
]


def test_order_searches_keep_their_output_on_the_fixtures(fixtures_dir):
    assert len(PINNED_ORDER_SEARCHES) == 2 * len(list(fixtures_dir.glob("*.aut"))) + len(
        list(fixtures_dir.glob("*.bet")))
    for (command, name, *flags), expected_code, expected_out in PINNED_ORDER_SEARCHES:
        path = str(fixtures_dir / name)
        code, _, _, text = run_cli(command, path, *flags)
        assert (code, text.replace(path, "FILE")) == (expected_code, expected_out), name


def test_reduce_subcommands(fixtures_dir, tmp_path):
    code, _, block, _ = run_cli("reduce", "universality",
                                str(fixtures_dir / "universal1.aut"),
                                "-o", str(tmp_path / "u.aut"))
    assert code == 0 and block["states-added"] == "2" and block["symbols-added"] == "3"
    code, _, block, _ = run_cli("reduce", "nfa-to-gw", str(fixtures_dir / "wdfa6.aut"),
                                "-o", str(tmp_path / "g.aut"))
    assert code == 0 and block["states-added"] == "23"
    code, _, block, _ = run_cli("reduce", "betweenness",
                                str(fixtures_dir / "triple1.bet"),
                                "-o", str(tmp_path / "b.aut"))
    assert code == 0 and block["output-states"] == "11"
    assert parse_automaton((tmp_path / "b.aut").read_text()).deterministic


def test_export_dot(fixtures_dir, tmp_path):
    code, lines, _, raw = run_cli("export-dot", str(fixtures_dir / "wdfa6.aut"))
    assert code == 0 and "digraph" in raw and "doublecircle" in raw
    out = tmp_path / "g.dot"
    code, _, block, _ = run_cli("export-dot", str(fixtures_dir / "wdfa6.aut"),
                                "--wheeler", "-o", str(out))
    assert code == 0 and "rank 5" in out.read_text()
    code, *_ = run_cli("export-dot", str(fixtures_dir / "notwdfa6.aut"), "--wheeler")
    assert code == 1


def test_input_errors(fixtures_dir, tmp_path):
    assert run_cli("check-gw", "nonexistent.aut", "--language")[0] == 3
    assert run_cli("no-such-command")[0] == 3
    bad = tmp_path / "bad.aut"
    bad.write_text("alphabet a\nstates 1\ninitial 0\nfinal 0\nedge 0 z 0\n")
    assert run_cli("check-dfa", str(bad))[0] == 3
    nfa = tmp_path / "nfa.aut"
    nfa.write_text("alphabet a\nstates 2\ninitial 0\nfinal 1\n"
                   "edge 0 a 0\nedge 0 a 1\n")
    assert run_cli("check-dfa", str(nfa))[0] == 3


def test_structured_block_is_deterministic(fixtures_dir):
    first = run_cli("check-dfa", str(fixtures_dir / "wdfa6.aut"))[3]
    second = run_cli("check-dfa", str(fixtures_dir / "wdfa6.aut"))[3]
    assert first == second
    a = run_cli("check-lang", str(fixtures_dir / "mind4_nonwheeler.aut"))
    b = run_cli("check-lang", str(fixtures_dir / "mind4_nonwheeler.aut"))
    assert a[3].partition("---")[2] == b[3].partition("---")[2]


def _aut(tmp_path, text):
    path = tmp_path / "in.aut"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _star(leaves):
    return (f"alphabet a\nstates {leaves + 1}\ninitial 0\n"
            f"final {' '.join(str(v) for v in range(1, leaves + 1))}\n"
            + "".join(f"edge 0 a {v}\n" for v in range(1, leaves + 1)))


def test_non_ascii_digits_are_input_errors(fixtures_dir, tmp_path):
    # '²' passes str.isdigit() but not int()
    bad = _aut(tmp_path, "alphabet a\nstates ²\ninitial 0\nfinal 0\n")
    assert run_cli("check-nfa", bad)[0] == 3
    bad = _aut(tmp_path, "alphabet a\nstates 2\ninitial 0\nfinal ¹\n")
    assert run_cli("check-nfa", bad)[0] == 3
    assert run_cli("check-lang", str(fixtures_dir / "mind4_wheeler.aut"),
                   "--caps", "gamma=²")[0] == 3


def test_export_dot_escapes_quotes_and_backslashes(tmp_path):
    path = _aut(tmp_path, 'alphabet a"b c\\d\nstates 3\ninitial 0\nfinal 1 2\n'
                          'edge 0 a"b 1\nedge 0 c\\d 2\n')
    code, _, _, raw = run_cli("export-dot", path)
    assert code == 0
    assert '0 -> 1 [label="a\\"b"];' in raw
    assert '0 -> 2 [label="c\\\\d"];' in raw


def test_writes_under_a_missing_directory_are_input_errors(fixtures_dir, tmp_path):
    out = str(tmp_path / "missing" / "out.aut")
    wheeler_dfa = str(fixtures_dir / "mind4_wheeler.aut")
    assert run_cli("check-lang", wheeler_dfa, "-o", out)[0] == 3
    assert run_cli("min-wdfa", wheeler_dfa, "-o", out)[0] == 3
    assert run_cli("reduce", "universality", wheeler_dfa, "-o", out)[0] == 3
    assert run_cli("export-dot", wheeler_dfa, "-o", out)[0] == 3


def test_check_nfa_decides_a_sixty_state_star(tmp_path):
    code, _, block, _ = run_cli("check-nfa", _aut(tmp_path, _star(59)))
    assert code == 0 and block["verdict"] == "wheeler"
    assert [block[f"order.{i}"] for i in range(60)] == [str(i) for i in range(60)]


def test_check_nfa_budget_bounds_a_two_thousand_leaf_star(tmp_path):
    path = _aut(tmp_path, _star(2000))
    started = time.perf_counter()
    code, _, _, _ = run_cli("check-nfa", path, "--budget", "10000")
    assert code == 2
    assert time.perf_counter() - started < 10


def test_check_nfa_default_budget_bounds_a_two_thousand_leaf_star(tmp_path):
    # no --budget: the search stops at its default of 10^6 nodes, end to end
    path = _aut(tmp_path, _star(2000))
    src = str(pathlib.Path(wheelerkit.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "wheelerkit.cli", "check-nfa", path],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "infeasible: order search passed 1000000 nodes\n"


def test_check_nfa_decides_a_ten_thousand_state_path(tmp_path):
    n = 10_000
    text = (f"alphabet a\nstates {n}\ninitial 0\nfinal {n - 1}\n"
            + "".join(f"edge {q} a {q + 1}\n" for q in range(n - 1)))
    code, _, block, _ = run_cli("check-nfa", _aut(tmp_path, text))
    assert code == 0 and block["verdict"] == "wheeler"
    assert block[f"order.{n - 1}"] == str(n - 1)


def test_check_nfa_negative_budget_is_an_input_error(fixtures_dir):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check-nfa", str(fixtures_dir / "wdfa6.aut"), "--budget", "-1"])
    assert code == 3
    assert err.getvalue().startswith("error: --budget")


def test_min_wdfa_negative_word_cap_is_an_input_error(fixtures_dir, tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["min-wdfa", str(fixtures_dir / "mind4_wheeler.aut"),
                     "-o", str(tmp_path / "out.aut"), "--word-cap", "-3"])
    assert code == 3
    assert err.getvalue().startswith("error: --word-cap")
    assert not (tmp_path / "out.aut").exists()


def test_min_wdfa_past_the_digit_limit_is_infeasible(tmp_path):
    aut = tmp_path / "ab.aut"
    aut.write_text("alphabet a b\nstates 1\ninitial 0\nfinal 0\nedge 0 a 0\nedge 0 b 0\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["min-wdfa", str(aut), "--depth", "15000", "-o", str(tmp_path / "out.aut")])
    assert code == 2
    assert err.getvalue() == ("infeasible: more than 10^4515 readable words up to depth 15000 "
                              "exceed the cap 10000000\n")
    assert not (tmp_path / "out.aut").exists()


_NINE_SYMBOLS = "alphabet a b c d e f g h i\nstates 2\ninitial 0\nfinal 1\nedge 0 a 1\n"
_ELEVEN_ELEMENTS = "elements " + " ".join(f"e{i}" for i in range(11)) + "\n"


@pytest.mark.parametrize("error, make_argv, message", [
    ("SearchBudgetExceeded",
     lambda fx, tmp: ["check-nfa", str(fx / "wdfa6.aut"), "--budget", "0"],
     "order search passed 0 nodes"),
    ("StateBlowupExceeded",
     lambda fx, tmp: ["check-lang", str(fx / "wdfa6.aut"), "--nfa"],
     "subset construction passed 1 states"),
    ("InfeasibleEnumeration",
     lambda fx, tmp: ["min-wdfa", str(fx / "mind4_wheeler.aut"), "-o", str(tmp / "out.aut"),
                      "--word-cap", "1"],
     "60 readable words up to depth 20 exceed the cap 1"),
    ("AlphabetTooLarge",
     lambda fx, tmp: ["check-gw", _aut(tmp, _NINE_SYMBOLS), "--automaton"],
     "9! orders exceed the budget (sigma <= 8)"),
    ("TooManyElements",
     lambda fx, tmp: ["solve-betweenness", _aut(tmp, _ELEVEN_ELEMENTS)],
     "11 elements exceed the budget 10"),
])
def test_every_bound_error_exits_infeasible(fixtures_dir, tmp_path, monkeypatch,
                                            error, make_argv, message):
    if error == "StateBlowupExceeded":
        # a real subset construction past 2^18 states takes seconds and
        # hundreds of MB; a cap of one state reaches the same error at once
        real = language.is_language_wheeler_nfa
        monkeypatch.setattr(language, "is_language_wheeler_nfa",
                            lambda a, **kw: real(a, state_cap=1, **kw))
    assert issubclass(getattr(wheelerkit, error), wheelerkit.errors.BoundExceeded)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(make_argv(fixtures_dir, tmp_path))
    assert code == cli.EXIT_INFEASIBLE == 2
    assert out.getvalue() == ""
    assert err.getvalue() == f"infeasible: {message}\n"


def test_non_utf8_input_is_an_input_error(fixtures_dir, tmp_path):
    aut = tmp_path / "bad.aut"
    aut.write_bytes((fixtures_dir / "wdfa6.aut").read_bytes() + b"# \xff\n")
    bet = tmp_path / "bad.bet"
    bet.write_bytes(b"\xffelements y1 y2 y3\ntriple y1 y2 y3\n")
    out = str(tmp_path / "out.aut")
    for path, argv in ((aut, ["check-dfa", str(aut)]), (aut, ["check-lang", str(aut)]),
                       (bet, ["solve-betweenness", str(bet)]),
                       (bet, ["reduce", "betweenness", str(bet), "-o", out])):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 3, argv
        assert err.getvalue().startswith(f"error: cannot read {path}: "), err.getvalue()


def test_check_nfa_decides_a_five_hundred_state_trie(tmp_path):
    path = _aut(tmp_path, serialize_automaton(random_trie(random.Random(11), 500)))
    code, _, block, _ = run_cli("check-nfa", path)
    assert code == 0 and block["verdict"] == "wheeler"
    dfa_code, _, dfa_block, _ = run_cli("check-dfa", path)
    assert dfa_code == 0
    order = {k: v for k, v in block.items() if k.startswith("order.")}
    assert len(order) == 500
    assert order == {k: v for k, v in dfa_block.items() if k.startswith("order.")}


def test_unexpected_exception_exits_internal_without_traceback(fixtures_dir, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_check_dfa", broken)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-dfa", str(fixtures_dir / "wdfa6.aut")])
    assert code == cli.EXIT_INTERNAL == 4
    assert err.getvalue() == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_a_disagreement_between_deciders_exits_internal(fixtures_dir, monkeypatch):
    def refuting(*args, **kwargs):
        raise ConstructionInconsistent("forced")

    # the walk finds the language Wheeler, the construction now refutes it
    monkeypatch.setattr(language, "build_min_wdfa", refuting)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check-lang", str(fixtures_dir / "mind4_wheeler.aut")])
    assert code == cli.EXIT_INTERNAL == 4
    assert err.getvalue().startswith("internal error: InternalDisagreement: ")


def test_min_wdfa_evidence_does_not_depend_on_the_hash_seed(tmp_path):
    # a draw whose built automaton fails condition (i) on a label block with
    # several edges into the same state: the evidence must not pick among
    # them by set iteration order
    rng = random.Random(20261019)
    for _ in range(372):
        d = random_feasible_dfa(rng)
    path = _aut(tmp_path, serialize_automaton(minimize(d)))
    src = str(pathlib.Path(wheelerkit.__file__).parent.parent)
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "wheelerkit.cli", "min-wdfa", path,
             "-o", str(tmp_path / "out.aut")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and "condition-i" in proc.stdout, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs



class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone away, as behind `| head -0`."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def _run_with_closed_stdout(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedStdout()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def test_closed_stdout_is_an_input_error_on_the_dot_output(fixtures_dir):
    code, err = _run_with_closed_stdout("export-dot", str(fixtures_dir / "wdfa6.aut"))
    assert code == cli.EXIT_INPUT_ERROR == 3
    assert err == "error: cannot write <stdout>: Broken pipe\n"


def test_closed_stdout_is_an_input_error_on_a_verdict(fixtures_dir):
    code, err = _run_with_closed_stdout("check-dfa", str(fixtures_dir / "wdfa6.aut"))
    assert code == cli.EXIT_INPUT_ERROR == 3
    assert err == "error: cannot write <stdout>: Broken pipe\n"

_TOKENS = ["alphabet", "states", "initial", "final", "edge", "#", "0", "1", "2", "3",
           "²", "-1", "a", "b", "a\"b", "x\\y", "99"]
_line = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=5).map(" ".join)
_token_text = st.lists(_line, max_size=8).map("\n".join)


@st.composite
def _small_automata(draw):
    n = draw(st.integers(1, 4))
    syms = ("a", "b")[:draw(st.integers(1, 2))]
    states = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(states, st.sampled_from(syms), states), max_size=7))
    finals = draw(st.sets(states, max_size=n))
    return (f"alphabet {' '.join(syms)}\nstates {n}\ninitial 0\n"
            f"final {' '.join(map(str, sorted(finals)))}\n"
            + "".join(f"edge {u} {s} {v}\n" for (u, s, v) in sorted(edges)))


_COMMANDS = [["check-dfa"], ["check-nfa"], ["export-dot"], ["export-dot", "--wheeler"],
             ["check-lang", "--method", "witness"],
             ["check-lang", "--nfa", "--method", "witness"],
             ["check-lang", "--nfa", "--method", "witness", "--caps", "gamma=²"],
             ["check-lang", "--nfa", "--method", "witness", "--caps", "gamma=3,paths=50"]]


@settings(max_examples=150)
@given(text=st.one_of(st.text(max_size=60), _token_text, _small_automata(),
                      st.binary(max_size=60)),
       command=st.sampled_from(_COMMANDS))
@example(text=b"alphabet a\nstates 1\ninitial 0\nfinal 0\n\xff\n", command=["check-dfa"])
@example(text="alphabet a\nstates ²\ninitial 0\nfinal 0\n", command=["check-nfa"])
@example(text="alphabet a\nstates 1\ninitial 0\nfinal 0\n",
         command=["check-lang", "--nfa", "--method", "witness", "--caps", "gamma=²"])
def test_cli_exit_codes_fuzz(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.aut"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        code, _, _, raw = run_cli(command[0], str(path), *command[1:])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert any(line.startswith("verdict: not-") for line in raw.splitlines())


def test_export_dot_annotates_an_nfa_with_its_wheeler_order(tmp_path):
    # the a-successors 2 and 3 sort before the b-successor 1
    path = _aut(tmp_path, "alphabet a b\nstates 4\ninitial 0\nfinal 1\n"
                          "edge 0 a 2\nedge 0 a 3\nedge 0 b 1\nedge 2 b 1\nedge 3 b 1\n")
    code, _, _, raw = run_cli("export-dot", path, "--wheeler")
    assert code == 0
    assert raw == ('digraph automaton {\n'
                   '  rankdir=LR;\n'
                   '  __init [shape=point, label=""];\n'
                   '  0 [shape=circle, label="q0\\nrank 0"];\n'
                   '  1 [shape=doublecircle, label="q1\\nrank 3"];\n'
                   '  2 [shape=circle, label="q2\\nrank 1"];\n'
                   '  3 [shape=circle, label="q3\\nrank 2"];\n'
                   '  __init -> 0;\n'
                   '  0 -> 2 [label="a"];\n'
                   '  0 -> 3 [label="a"];\n'
                   '  0 -> 1 [label="b"];\n'
                   '  2 -> 1 [label="b"];\n'
                   '  3 -> 1 [label="b"];\n'
                   '}\n')


def test_export_dot_refuses_an_nfa_without_a_wheeler_order(tmp_path):
    # input-consistent, but the order search refutes every order
    path = _aut(tmp_path, "alphabet b\nstates 5\ninitial 0\nfinal 0 1 2 3 4\n"
                          "edge 0 b 1\nedge 0 b 2\nedge 0 b 3\nedge 1 b 3\n"
                          "edge 1 b 4\nedge 2 b 3\nedge 2 b 4\n")
    code, lines, block, _ = run_cli("export-dot", path, "--wheeler")
    assert code == 1
    assert lines == [f"{path}: no Wheeler order to annotate"]
    assert block == {"verdict": "not-wheeler"}


def _shell(script, *args):
    """Run `script` under `sh -c`, so that the shell closes descriptors the
    way a user's redirection does; $0 is the interpreter, $1... are args."""
    src = str(pathlib.Path(wheelerkit.__file__).parent.parent)
    return subprocess.run(["sh", "-c", script, sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)


def test_closed_stdout_from_the_shell_is_an_input_error(fixtures_dir):
    proc = _shell('"$0" -m wheelerkit.cli check-dfa "$1" >&-',
                  str(fixtures_dir / "astar.aut"))
    assert proc.returncode == cli.EXIT_INPUT_ERROR == 3
    assert proc.stderr == "error: cannot write <stdout>: no standard output\n"


@pytest.mark.parametrize("closed", ["2>&-", "2</dev/null"])
def test_closed_stderr_from_the_shell_keeps_every_exit_code(fixtures_dir, tmp_path, closed):
    # `2>&-` may leave the child without sys.stderr, or with fd 2 reused by a
    # file opened at start-up; a read-only fd 2 makes every write fail (EBADF)
    run = '"$0" -m wheelerkit.cli "$@" ' + closed
    missing = str(tmp_path / "missing.aut")
    proc = _shell(run, "check-dfa", missing)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "")
    assert _shell(run + " >&-", "check-dfa", str(fixtures_dir / "wdfa6.aut")).returncode == 3
    bet = tmp_path / "big.bet"
    bet.write_text("elements " + " ".join(f"e{i}" for i in range(11)) + "\n")
    proc = _shell(run, "solve-betweenness", str(bet))
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INFEASIBLE, "")
    crash = ('"$0" -c "import sys, wheelerkit.cli as c; c.wheeler.dfa_wheeler_order = None;'
             ' sys.exit(c.main(sys.argv[1:]))" check-dfa "$1" ' + closed)
    proc = _shell(crash, str(fixtures_dir / "wdfa6.aut"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_INTERNAL, "", "")
    # the verdicts still reach stdout
    proc = _shell(run, "check-dfa", str(fixtures_dir / "notwdfa6.aut"))
    assert proc.returncode == 1 and "verdict: not-wheeler" in proc.stdout
    proc = _shell(run, "check-dfa", str(fixtures_dir / "wdfa6.aut"))
    assert proc.returncode == 0 and "verdict: wheeler" in proc.stdout
