import contextlib
import io
import pathlib
import tempfile
import time

from hypothesis import example, given, settings, strategies as st

from wheelerkit import cli, parse_automaton, language_equal
from wheelerkit.cli import main


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
@given(text=st.one_of(st.text(max_size=60), _token_text, _small_automata()),
       command=st.sampled_from(_COMMANDS))
@example(text="alphabet a\nstates ²\ninitial 0\nfinal 0\n", command=["check-nfa"])
@example(text="alphabet a\nstates 1\ninitial 0\nfinal 0\n",
         command=["check-lang", "--nfa", "--method", "witness", "--caps", "gamma=²"])
def test_cli_exit_codes_fuzz(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.aut"
        path.write_text(text, encoding="utf-8")
        code, _, _, raw = run_cli(command[0], str(path), *command[1:])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert any(line.startswith("verdict: not-") for line in raw.splitlines())
