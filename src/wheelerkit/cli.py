"""Command line entry point.

Exit codes: 0 positive verdict / success, 1 negative verdict, 2 infeasible
or budget exceeded, 3 input error, 4 internal error (an unexpected exception,
a bug, reported on stderr without a traceback).  Machine-readable output is a
block of `key: value` lines after a `---` separator; everything before the
separator (including timings) is free-form human text.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import gw, language, minwdfa, reductions, wheeler
from .automaton import (
    minimize,
    parse_automaton,
    serialize_automaton,
    to_dot,
    trim_basic,
)
from .errors import (
    AlphabetTooLarge,
    ConstructionInconsistent,
    InfeasibleEnumeration,
    SearchBudgetExceeded,
    StateBlowupExceeded,
    TooManyElements,
    WheelerkitError,
)

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL = 4


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from None


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror}") from None


def _load_automaton(path):
    return parse_automaton(_read(path))


def _emit(human, block):
    for line in human:
        print(line)
    print("---")
    for key, value in block:
        print(f"{key}: {value}")


def _word_text(w):
    return " ".join(w)


def _order_block(order):
    return [(f"order.{rank}", state) for rank, state in enumerate(order.sequence())]


def _violation_block(violation):
    ev = " ".join("(" + " ".join(str(x) for x in item) + ")"
                  if isinstance(item, tuple) else str(item)
                  for item in violation.evidence)
    return [("verdict", "not-wheeler"),
            ("violation", violation.kind),
            ("evidence", ev)]


def _parse_caps(text, n):
    caps = language.SearchCaps.default(n)
    if not text:
        return caps
    values = {}
    for part in text.split(","):
        if "=" not in part:
            raise _CliError(f"bad caps item {part!r} (want key=value)")
        key, _, raw = part.partition("=")
        if key not in ("gamma", "cycle", "pump", "paths") or not (
                raw.isascii() and raw.isdigit()):
            raise _CliError(f"bad caps item {part!r}")
        values[key] = int(raw)
    return language.SearchCaps(
        gamma_bound=values.get("gamma", caps.gamma_bound),
        cycle_len_cap=values.get("cycle", caps.cycle_len_cap),
        pump_cap=values.get("pump", caps.pump_cap),
        path_count_cap=values.get("paths", caps.path_count_cap),
    )


def cmd_check_dfa(args):
    a = trim_basic(_load_automaton(args.file))
    if not a.deterministic:
        raise _CliError("input is nondeterministic; use check-nfa")
    result = wheeler.dfa_wheeler_order(a)
    if isinstance(result, wheeler.WheelerOrder):
        _emit([f"{args.file}: Wheeler"], [("verdict", "wheeler")] + _order_block(result))
        return EXIT_POSITIVE
    _emit([f"{args.file}: not Wheeler ({result.detail})"], _violation_block(result))
    return EXIT_NEGATIVE


def cmd_check_nfa(args):
    a = trim_basic(_load_automaton(args.file))
    result = wheeler.nfa_wheeler_search(a, budget=args.budget)
    if isinstance(result, wheeler.WheelerOrder):
        _emit([f"{args.file}: Wheeler"], [("verdict", "wheeler")] + _order_block(result))
        return EXIT_POSITIVE
    if isinstance(result, wheeler.WheelerViolation):
        _emit([f"{args.file}: not Wheeler ({result.detail})"], _violation_block(result))
        return EXIT_NEGATIVE
    _emit([f"{args.file}: not Wheeler"],
          [("verdict", "not-wheeler"),
           ("violation", "search-exhausted"),
           ("evidence", "no state order satisfies the Wheeler conditions")])
    return EXIT_NEGATIVE


def cmd_check_lang(args):
    a = trim_basic(_load_automaton(args.file))
    caps = _parse_caps(args.caps, a.n) if args.caps else None
    started = time.perf_counter()
    if args.nfa:
        verdict = language.is_language_wheeler_nfa(a, method=args.method, caps=caps)
    else:
        if not a.deterministic:
            raise _CliError("input is nondeterministic; pass --nfa")
        verdict = language.is_language_wheeler_dfa(a, method=args.method, caps=caps)
    elapsed = time.perf_counter() - started

    human = [f"{args.file}: language is {verdict.status}",
             f"decided in {elapsed * 1000:.1f} ms"]
    block = [("verdict", verdict.status)]
    if verdict.witness is not None:
        block += [("mu", _word_text(verdict.witness.mu)),
                  ("nu", _word_text(verdict.witness.nu)),
                  ("gamma", _word_text(verdict.witness.gamma))]
    if verdict.wdfa is not None:
        block.append(("wdfa-states", verdict.wdfa.automaton.n))
        if args.output:
            _write_wdfa(args.output, verdict.wdfa)
            block.append(("output", args.output))
    if verdict.reason:
        block.append(("reason", verdict.reason))
    _emit(human, block)
    if verdict.status == language.WHEELER:
        return EXIT_POSITIVE
    if verdict.status == language.NOT_WHEELER:
        return EXIT_NEGATIVE
    return EXIT_INFEASIBLE


def _write_wdfa(path, wdfa):
    text = serialize_automaton(wdfa.automaton)
    lines = ["# state-to-representative map:"]
    for i, rep in enumerate(wdfa.representatives):
        lines.append(f"# state {i} <- {_word_text(rep) or 'epsilon'}")
    _write(path, text + "\n".join(lines) + "\n")


def cmd_min_wdfa(args):
    a = trim_basic(_load_automaton(args.file))
    if not a.deterministic:
        raise _CliError("input is nondeterministic; determinize it first")
    min_dfa = minimize(a)
    try:
        wdfa = minwdfa.build_min_wdfa(min_dfa, depth=args.depth, word_cap=args.word_cap)
    except ConstructionInconsistent as exc:
        _emit([f"{args.file}: construction failed, language is not Wheeler"],
              [("verdict", "not-wheeler"), ("reason", str(exc))])
        return EXIT_NEGATIVE
    _write_wdfa(args.output, wdfa)
    _emit([f"{args.file}: minimum WDFA written to {args.output}"],
          [("verdict", "wheeler"),
           ("states", wdfa.automaton.n),
           ("certified", "true" if wdfa.certified else "false"),
           ("output", args.output)])
    return EXIT_POSITIVE


def cmd_check_gw(args):
    a = trim_basic(_load_automaton(args.file))
    if args.language:
        if not a.deterministic:
            raise _CliError("--language wants a DFA input")
        order = gw.gw_language_check(a)
    else:
        order = gw.gw_automaton_check(a)
    what = "language" if args.language else "automaton"
    if order is not None:
        _emit([f"{args.file}: {what} is generalized Wheeler"],
              [("verdict", "gw"), ("order", " ".join(order))])
        return EXIT_POSITIVE
    _emit([f"{args.file}: {what} is not generalized Wheeler"],
          [("verdict", "not-gw")])
    return EXIT_NEGATIVE


def cmd_solve_betweenness(args):
    inst = gw.parse_betweenness(_read(args.file))
    order = gw.solve_betweenness(inst)
    if order is not None:
        _emit([f"{args.file}: satisfiable"],
              [("verdict", "sat"), ("order", " ".join(order))])
        return EXIT_POSITIVE
    _emit([f"{args.file}: unsatisfiable"], [("verdict", "unsat")])
    return EXIT_NEGATIVE


def cmd_reduce(args):
    if args.kind == "betweenness":
        report = reductions.reduce_betweenness_to_dfa(
            gw.parse_betweenness(_read(args.file)))
    else:
        a = trim_basic(_load_automaton(args.file))
        if args.kind == "universality":
            report = reductions.reduce_universality(a)
        else:
            report = reductions.reduce_nfa_wheeler_to_gw(a)
    _write(args.output, serialize_automaton(report.automaton))
    _emit([f"{args.file}: reduction written to {args.output}"],
          [("states-added", report.states_added),
           ("symbols-added", report.symbols_added),
           ("fresh", " ".join(report.fresh_symbols)),
           ("output-states", report.automaton.n),
           ("output-symbols", len(report.automaton.alphabet)),
           ("output", args.output)])
    return EXIT_POSITIVE


def cmd_export_dot(args):
    a = trim_basic(_load_automaton(args.file))
    ranks = None
    if args.wheeler:
        result = (wheeler.dfa_wheeler_order(a) if a.deterministic
                  else wheeler.nfa_wheeler_search(a))
        if not isinstance(result, wheeler.WheelerOrder):
            _emit([f"{args.file}: no Wheeler order to annotate"],
                  [("verdict", "not-wheeler")])
            return EXIT_NEGATIVE
        ranks = result.ranks
    text = to_dot(a, ranks=ranks)
    if args.output:
        _write(args.output, text)
        _emit([f"{args.file}: DOT written to {args.output}"],
              [("output", args.output)])
    else:
        sys.stdout.write(text)
    return EXIT_POSITIVE


def build_parser():
    parser = _Parser(prog="wheelerkit",
                     description="Wheeler automata and Wheeler language toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-dfa", help="is this DFA Wheeler under its alphabet order")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_dfa)

    p = sub.add_parser("check-nfa", help="is this NFA Wheeler (backtracking search)")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_check_nfa)

    p = sub.add_parser("check-lang", help="is the accepted language Wheeler")
    p.add_argument("file")
    p.add_argument("--nfa", action="store_true")
    p.add_argument("--method", choices=["witness", "construct", "both"],
                   default="both")
    p.add_argument("--caps", default="",
                   help="witness caps: gamma=N,cycle=N,pump=N,paths=N")
    p.add_argument("-o", "--output", help="write the WDFA certificate here")
    p.set_defaults(func=cmd_check_lang)

    p = sub.add_parser("min-wdfa", help="build the minimum WDFA from a DFA")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--word-cap", type=int, default=minwdfa.DEFAULT_WORD_CAP)
    p.set_defaults(func=cmd_min_wdfa)

    p = sub.add_parser("check-gw", help="search alphabet orders for Wheelerness")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--automaton", action="store_true")
    group.add_argument("--language", action="store_true")
    p.set_defaults(func=cmd_check_gw)

    p = sub.add_parser("solve-betweenness", help="brute-force a betweenness instance")
    p.add_argument("file")
    p.set_defaults(func=cmd_solve_betweenness)

    p = sub.add_parser("reduce", help="emit a hardness-reduction gadget")
    p.add_argument("kind", choices=["universality", "nfa-to-gw", "betweenness"])
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("export-dot", help="Graphviz rendering of an automaton")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--wheeler", action="store_true",
                   help="annotate states with their Wheeler ranks")
    p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (SearchBudgetExceeded, InfeasibleEnumeration, StateBlowupExceeded,
            AlphabetTooLarge, TooManyElements) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except WheelerkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # never exit 1, which means "not Wheeler"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
