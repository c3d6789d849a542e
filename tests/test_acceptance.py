"""Acceptance suite: one test per criterion, each printing a PASS line and
holding to its stated wall-clock budget.  Run with `pytest -v -s`."""

import contextlib
import functools
import io
import math
import random
import time

from wheelerkit import (
    Automaton,
    OrderedAlphabet,
    accepts,
    build_min_wdfa,
    check_witness_dfa,
    dfa_walk,
    dfa_wheeler_order,
    determinize,
    gamma_length_bound,
    gw_automaton_check,
    gw_language_check,
    is_language_wheeler_dfa,
    language_equal,
    minimize,
    reduce_betweenness_to_dfa,
    reduce_universality,
    serialize_automaton,
    solve_betweenness,
    trim_basic,
    verify_wheeler,
    with_alphabet_order,
)
from wheelerkit.cli import main
from wheelerkit.language import METHOD_CONSTRUCT, METHOD_WITNESS, NOT_WHEELER, WHEELER
from wheelerkit.minwdfa import certifying_depth
from wheelerkit.wheeler import CONDITION_II, WheelerOrder
from reference import dfa_witness_bound_ok, is_primitive, relabel_by_order
from corpus import (
    all_words,
    enumerate_simple_cycles,
    enumerate_small_betweenness,
    random_feasible_dfa,
    random_trimmed_nfa,
    random_wheeler_nfa,
)

CORPUS_SEED = 20260810
CORPUS_WORD_CAP = 300_000


def finish(num, started, budget, text):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num:>2} PASS {elapsed:7.2f}s  {text}")
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s (budget {budget}s)"


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    block = {}
    text = out.getvalue()
    if "---" in text:
        for line in text.partition("---\n")[2].splitlines():
            key, _, value = line.partition(": ")
            block[key] = value
    return code, block


@functools.lru_cache(maxsize=None)
def corpus_200():
    rng = random.Random(CORPUS_SEED)
    return tuple(random_feasible_dfa(rng, word_cap=CORPUS_WORD_CAP)
                 for _ in range(200))


@functools.lru_cache(maxsize=None)
def corpus_witness_verdicts():
    return tuple(is_language_wheeler_dfa(d, method=METHOD_WITNESS)
                 for d in corpus_200())


@functools.lru_cache(maxsize=None)
def corpus_construct_verdicts():
    return tuple(is_language_wheeler_dfa(d, method=METHOD_CONSTRUCT,
                                         word_cap=CORPUS_WORD_CAP)
                 for d in corpus_200())


def test_criterion_01_wheeler_order_of_the_six_state_wdfa(fixtures_dir):
    started = time.perf_counter()
    code, block = run_cli("check-dfa", str(fixtures_dir / "wdfa6.aut"))
    assert code == 0 and block["verdict"] == "wheeler"
    assert [block[f"order.{i}"] for i in range(6)] == ["0", "1", "2", "3", "4", "5"]
    finish(1, started, 1.0, "check-dfa finds exactly the order q0<...<q5")


def test_criterion_02_condition_ii_violation(fixtures_dir, notwdfa6):
    started = time.perf_counter()
    code, block = run_cli("check-dfa", str(fixtures_dir / "notwdfa6.aut"))
    assert code == 1 and block["verdict"] == "not-wheeler"
    assert block["violation"] == "condition-ii"
    assert block["evidence"].count("c") >= 2  # both offending edges carry c
    violation = dfa_wheeler_order(notwdfa6)
    assert violation.kind == CONDITION_II
    assert all(e[1] == "c" for e in violation.evidence)
    finish(2, started, 1.0, "check-dfa reports a condition-(ii) clash on c-edges")


def test_criterion_03_language_twins(fixtures_dir):
    started = time.perf_counter()
    code, block = run_cli("check-lang", str(fixtures_dir / "mind4_nonwheeler.aut"),
                          "--method", "both")
    assert code == 1 and block["verdict"] == "not-wheeler"
    assert (block["mu"], block["nu"], block["gamma"]) == ("a", "b", "c")
    first = time.perf_counter() - started
    assert first < 5.0
    second_start = time.perf_counter()
    code, block = run_cli("check-lang", str(fixtures_dir / "mind4_wheeler.aut"),
                          "--method", "both")
    assert code == 0 and block["verdict"] == "wheeler"
    assert time.perf_counter() - second_start < 5.0
    finish(3, started, 10.0, "check-lang separates the twin languages, witness (a,b,c)")


def test_criterion_04_min_wdfa_reconstruction(fixtures_dir, tmp_path, wdfa6,
                                              mind4_wheeler):
    started = time.perf_counter()
    assert certifying_depth(minimize(mind4_wheeler).n) == 20
    wdfa = build_min_wdfa(minimize(mind4_wheeler))
    assert wdfa.automaton.n == 6
    assert verify_wheeler(wdfa.automaton, wdfa.order) is None
    assert language_equal(wdfa.automaton, mind4_wheeler)
    known = dfa_wheeler_order(wdfa6)
    assert relabel_by_order(wdfa6, known.ranks) == wdfa.automaton
    out = tmp_path / "wdfa.aut"
    code, block = run_cli("min-wdfa", str(fixtures_dir / "mind4_wheeler.aut"),
                          "-o", str(out))
    assert code == 0 and block["states"] == "6" and block["certified"] == "true"
    finish(4, started, 30.0, "minimum WDFA (6 states) matches the known one, order-preserving")


def test_criterion_05_witness_bounds_on_corpus():
    started = time.perf_counter()
    witnesses = 0
    for d, verdict in zip(corpus_200(), corpus_witness_verdicts()):
        if verdict.witness is None:
            continue
        witnesses += 1
        assert dfa_witness_bound_ok(d.n, verdict.witness)
        mu, nu, gamma = verdict.witness.words()
        assert max(len(mu), len(nu)) <= len(gamma) <= gamma_length_bound(d.n)
        assert check_witness_dfa(minimize(d), verdict.witness)
    assert witnesses >= 20
    finish(5, started, 60.0,
           f"all {witnesses} corpus witnesses respect |mu|,|nu| <= |gamma| <= B(n)")


def test_criterion_06_oracle_agreement_on_corpus():
    started = time.perf_counter()
    wheeler = not_wheeler = 0
    for d, vw, vc in zip(corpus_200(), corpus_witness_verdicts(),
                         corpus_construct_verdicts()):
        assert vw.status == vc.status, serialize_automaton(d)
        if vc.status == WHEELER:
            wheeler += 1
        else:
            not_wheeler += 1
    assert wheeler + not_wheeler == 200 and wheeler and not_wheeler
    finish(6, started, 120.0,
           f"witness-search and construct-verify agree on 200 DFAs "
           f"({wheeler} wheeler / {not_wheeler} not)")


def test_criterion_07_powerset_bound_for_wheeler_nfas():
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 7)
    nondeterministic = 0
    for _ in range(50):
        a, order = random_wheeler_nfa(rng, max_n=8)
        assert verify_wheeler(a, order) is None
        nondeterministic += not a.deterministic
        d = determinize(a)
        assert d.n <= 2 * a.n, serialize_automaton(a)
        assert isinstance(dfa_wheeler_order(d), WheelerOrder)
    assert nondeterministic >= 10
    finish(7, started, 30.0,
           "50 certified Wheeler NFAs determinize to <= 2n states, all Wheeler")


def test_criterion_08_primitive_cycle_labels(mind4_wheeler):
    started = time.perf_counter()
    outputs = [build_min_wdfa(minimize(mind4_wheeler)).automaton]
    outputs += [v.wdfa.automaton for v in corpus_construct_verdicts()
                if v.wdfa is not None]
    checked = 0
    for out in outputs:
        for label in enumerate_simple_cycles(out):
            assert is_primitive(label)
            checked += 1
    assert checked >= 50
    finish(8, started, 10.0,
           f"{checked} simple-cycle labels over {len(outputs)} WDFAs, all primitive")


def brute_universal_to_6(a):
    d = determinize(trim_basic(a))
    return all(accepts(d, w) for w in all_words(a.alphabet.symbols, 6))


def exact_universal(a):
    d = determinize(trim_basic(a))
    seen, queue = {d.initial}, [d.initial]
    while queue:
        q = queue.pop()
        if q not in d.finals:
            return False
        for s in d.alphabet.symbols:
            t = dfa_walk(d, (s,), start=q)
            if t is None:
                return False
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return True


def test_criterion_09_universality_reduction_biconditional(tmp_path, universal1,
                                                           epsilon_d):
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 9)
    samples = [universal1, epsilon_d]
    while len(samples) < 42:
        a = random_trimmed_nfa(rng, max_n=3, max_sigma=2, density=0.35,
                               force_eps=True)
        if len(a.alphabet) <= 2 and brute_universal_to_6(a) == exact_universal(a):
            samples.append(a)
    universal_count = 0
    for i, a in enumerate(samples):
        universal = brute_universal_to_6(a)
        universal_count += universal
        gadget = reduce_universality(a).automaton
        path = tmp_path / f"gadget{i}.aut"
        path.write_text(serialize_automaton(gadget))
        code, block = run_cli("check-lang", str(path), "--nfa")
        assert code in (0, 1)
        assert (code == 0) == universal, serialize_automaton(a)
        assert (block["verdict"] == "wheeler") == universal
    assert 0 < universal_count < len(samples)
    finish(9, started, 120.0,
           f"universality <=> Wheeler(A'') on {len(samples)} NFAs "
           f"({universal_count} universal)")


def test_criterion_10_betweenness_reduction_biconditional():
    started = time.perf_counter()
    instances = enumerate_small_betweenness()
    sat_count = 0
    for inst in instances:
        gadget = reduce_betweenness_to_dfa(inst).automaton
        sat = solve_betweenness(inst) is not None
        sat_count += sat
        assert (gw_automaton_check(gadget) is not None) == sat, inst
        assert (gw_language_check(gadget) is not None) == sat, inst
    assert 0 < sat_count < len(instances)
    finish(10, started, 120.0,
           f"betweenness <=> GW automaton <=> GW language on "
           f"{len(instances)} instances ({sat_count} sat)")


def test_criterion_11_star_free_boundary(starfree_nongw, mind4_wheeler):
    started = time.perf_counter()
    assert gw_language_check(starfree_nongw) is None
    assert gw_automaton_check(starfree_nongw) is None
    assert gw_language_check(mind4_wheeler) == ("a", "c", "d", "f")
    reordered = with_alphabet_order(mind4_wheeler, ("a", "d", "c", "f"))
    assert is_language_wheeler_dfa(reordered).status == NOT_WHEELER
    finish(11, started, 10.0,
           "star-free language not GW; the Wheeler twin is GW but breaks under a<d<c<f")


def cycle_dfa(j):
    syms = tuple(f"s{i}" for i in range(j))
    edges = {(i, syms[i], (i + 1) % j) for i in range(j)}
    return Automaton(OrderedAlphabet(syms), j, 0, frozenset({0}), frozenset(edges))


def test_criterion_12_build_complexity_slope():
    started = time.perf_counter()
    points = []
    for j in (8, 12, 17, 24, 34, 48):
        d = minimize(cycle_dfa(j))
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            wdfa = build_min_wdfa(d)
            best = min(best, time.perf_counter() - t0)
        k = certifying_depth(j) + 1
        m = wdfa.automaton.n
        model = k + j * j * j * m * math.log(m)
        points.append((math.log(model), math.log(best)))
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    assert 0.2 < slope < 2.0, f"log-log slope {slope:.2f} out of range"
    finish(12, started, 60.0,
           f"build runtime slope {slope:.2f} against k + n^2*sigma*m*log(m) (< 2.0)")
