"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the traced public functions of each wheelerkit
module and rebinds every module-level name that refers to one of them
(in the defining module, in modules that imported it, and in the package),
so each call is seen exactly once whichever name the caller used.  A wrapper
records a span (id, parent, name, start, end, operation) and feeds the work
counters; `OrderedAlphabet.colex_key` is only counted.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _outcome(tracer, name, result, exc, kinds):
    for label, test in kinds:
        if test(result, exc):
            tracer.counts[f"{name}.outcome.{label}"] += 1
            return


def _build_outcome(tracer, result, exc, wk):
    _outcome(tracer, "minwdfa.build_min_wdfa", result, exc, (
        ("built", lambda r, e: e is None),
        ("inconsistent", lambda r, e: isinstance(e, wk.ConstructionInconsistent)),
        ("infeasible", lambda r, e: isinstance(e, wk.InfeasibleEnumeration)),
    ))


def _search_outcome(tracer, result, exc, wk):
    _outcome(tracer, "wheeler.nfa_wheeler_search", result, exc, (
        ("order", lambda r, e: e is None and isinstance(r, wk.WheelerOrder)),
        ("violation", lambda r, e: e is None and isinstance(r, wk.WheelerViolation)),
        ("none", lambda r, e: e is None and r is None),
        ("budget", lambda r, e: isinstance(e, wk.SearchBudgetExceeded)),
        ("crash", lambda r, e: e is not None),
    ))


def _add(key, measure):
    def counter(tracer, result, exc, wk):
        if exc is None:
            tracer.counts[key] += measure(result)
    return counter


# Traced functions, by "module.function", with the work counter each feeds.
TRACED = {
    "cli.main": None,
    "automaton.parse_automaton": None,
    "automaton.trim_basic": None,
    "automaton.determinize": _add("automaton.determinize.states", lambda r: r.n),
    "automaton.minimize": _add("automaton.minimize.states", lambda r: r.n),
    "automaton.language_equal": None,
    "automaton.with_alphabet_order": None,
    "wheeler.nfa_wheeler_search": _search_outcome,
    "wheeler.dfa_wheeler_order": None,
    "wheeler.verify_wheeler": None,
    "language.is_language_wheeler_nfa": None,
    "language.is_language_wheeler_dfa": None,
    "language.collect_candidates": lambda t, r, e, wk: e is None and t.add_candidates(r),
    "language.search_witness": None,
    "language.check_witness_dfa": None,
    "minwdfa.enumerate_prefixes": _add("minwdfa.enumerate_prefixes.words",
                                       lambda r: len(r.words)),
    "minwdfa.compute_fingerprint": _add("minwdfa.compute_fingerprint.classes",
                                        lambda r: r.classes),
    "minwdfa.build_min_wdfa": _build_outcome,
    "gw.gw_automaton_check": None,
    "gw.gw_language_check": None,
    "gw.solve_betweenness": None,
    "reductions.reduce_universality": None,
    "reductions.reduce_betweenness_to_dfa": None,
}
GW_CHECKS = ("gw.gw_automaton_check", "gw.gw_language_check")
MODULES = ("cli", "automaton", "wheeler", "language", "minwdfa", "gw", "reductions")

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = {}
for _name in ("minwdfa.enumerate_prefixes", "minwdfa.compute_fingerprint",
              "minwdfa.build_min_wdfa", "language.collect_candidates",
              "language.search_witness", "language.check_witness_dfa",
              "language.is_language_wheeler_dfa", "gw.gw_automaton_check",
              "gw.gw_language_check", "gw.solve_betweenness",
              "wheeler.nfa_wheeler_search", "wheeler.dfa_wheeler_order",
              "wheeler.verify_wheeler", "automaton.parse_automaton",
              "automaton.trim_basic", "automaton.determinize", "automaton.minimize",
              "automaton.language_equal", "automaton.with_alphabet_order", "cli.main",
              "reductions.reduce_universality", "reductions.reduce_betweenness_to_dfa"):
    PER_LAYER[f"{_name}.self_s"] = "s"
for _name in ("minwdfa.enumerate_prefixes", "language.search_witness",
              "wheeler.nfa_wheeler_search", "wheeler.verify_wheeler",
              "automaton.parse_automaton", "automaton.trim_basic", "automaton.determinize",
              "automaton.minimize", "automaton.language_equal",
              "automaton.with_alphabet_order"):
    PER_LAYER[f"{_name}.calls"] = "count"
for _name in ("minwdfa.enumerate_prefixes.words", "minwdfa.compute_fingerprint.classes",
              "minwdfa.build_min_wdfa.outcome.built",
              "minwdfa.build_min_wdfa.outcome.inconsistent",
              "minwdfa.build_min_wdfa.outcome.infeasible",
              "language.collect_candidates.gammas",
              "language.collect_candidates.entering_words",
              "language.collect_candidates.truncated", "gw.orders_tried",
              "wheeler.nfa_wheeler_search.outcome.order",
              "wheeler.nfa_wheeler_search.outcome.violation",
              "wheeler.nfa_wheeler_search.outcome.none",
              "wheeler.nfa_wheeler_search.outcome.budget",
              "wheeler.nfa_wheeler_search.outcome.crash",
              "automaton.determinize.states", "automaton.minimize.states",
              "alphabet.colex_key.calls"):
    PER_LAYER[_name] = "count"
PER_LAYER["minwdfa.words_per_class"] = "ratio"
PER_LAYER["gw.orders_per_verdict"] = "ratio"
for _name in MODULES:
    PER_LAYER[f"{_name}.self_s"] = "s"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start ns, end ns, operation)
        self.stack = []  # (id, name) of the open spans
        self.next_id = 0
        self.operation = "setup"
        self.counts = defaultdict(int)

    def add_candidates(self, candidates):
        self.counts["language.collect_candidates.gammas"] += len(candidates.gammas)
        self.counts["language.collect_candidates.entering_words"] += sum(
            len(words) for words in candidates.entering.values())
        self.counts["language.collect_candidates.truncated"] += bool(candidates.truncated)

    def wrap(self, name, fn, counter, wk):
        clock = time.perf_counter_ns
        stack, spans, counts = self.stack, self.spans, self.counts

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent, parent_name = stack[-1] if stack else (-1, None)
            if name == "automaton.with_alphabet_order" and parent_name in GW_CHECKS:
                counts["gw.orders_tried"] += 1
            stack.append((span_id, name))
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, self.operation))
                counts[f"{name}.calls"] += 1
                if counter is not None:
                    counter(self, result, exc, wk)

        return traced

    def install(self, wk):
        """Wrap the traced functions and rebind every name that refers to them."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n.split(".")[0] in ("wheelerkit", "corpus"))]
        for qualname, counter in TRACED.items():
            module_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"wheelerkit.{module_name}"], fn_name)
            wrapper = self.wrap(qualname, original, counter, wk)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
        wk.OrderedAlphabet.colex_key = self.count_only(
            "alphabet.colex_key.calls", wk.OrderedAlphabet.colex_key)

    def count_only(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def per_layer(self):
        """Self time and counts per layer, summed over all spans."""
        child = defaultdict(int)
        for (_, parent, _, start, end, _) in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = defaultdict(int)
        for (span_id, _, name, start, end, _) in self.spans:
            self_ns[name] += end - start - child[span_id]
        values = dict(self.counts)
        for name, ns in self_ns.items():
            values[f"{name}.self_s"] = ns / 1e9
            module = name.split(".")[0]
            values[f"{module}.self_s"] = values.get(f"{module}.self_s", 0.0) + ns / 1e9
        words = values.get("minwdfa.enumerate_prefixes.words", 0)
        classes = values.get("minwdfa.compute_fingerprint.classes", 0)
        values["minwdfa.words_per_class"] = words / classes if classes else 0.0
        checks = sum(values.get(f"{name}.calls", 0) for name in GW_CHECKS)
        values["gw.orders_per_verdict"] = values.get("gw.orders_tried", 0) / checks if checks else 0.0
        return {name: values.get(name, 0) for name in PER_LAYER}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,operation\n")
            for span in sorted(self.spans):
                fh.write(",".join(str(x) for x in span) + "\n")
