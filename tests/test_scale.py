"""The scale family: seeded inputs far larger than the corpora, run in
process through the CLI, with exit codes, outputs and tracemalloc peaks
pinned, not times."""

import contextlib
import io
import random
import tracemalloc

from wheelerkit.cli import main


def trie_text(rng, n, symbols=("a", "b", "c")):
    """A random n-state trie in the file format: each new state hangs on a
    (state, symbol) slot drawn from the free ones, and leaves are final.
    Linear in n: a drawn slot is swapped to the end and popped."""
    slots, lines, inner = [(0, s) for s in symbols], [], set()
    for q in range(1, n):
        i = rng.randrange(len(slots))
        slots[i], slots[-1] = slots[-1], slots[i]
        u, s = slots.pop()
        lines.append(f"edge {u} {s} {q}")
        inner.add(u)
        slots += [(q, s) for s in symbols]
    finals = " ".join(str(q) for q in range(n) if q not in inner)
    return "\n".join([f"alphabet {' '.join(symbols)}", f"states {n}", "initial 0",
                      f"final {finals}", *lines, ""])


def traced_cli(*argv):
    """(exit code, stdout, tracemalloc peak in bytes) of one in-process run."""
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, out.getvalue(), peak


def order_lines(text):
    return [line for line in text.splitlines() if line.startswith("order.")]


# Peaks of the 10^4-state trie below, with the Hopcroft refinement that
# rooted trees took before the prefix doubling: 14.5 MB for check-nfa,
# 6.8 MB for check-dfa and 7.1 MB for export-dot --wheeler (12.2 MB for
# check-nfa with the doubling).  The bound leaves 38 % headroom over the
# largest.
TRIE_PEAK_BOUND = 20 * 10 ** 6


def test_a_ten_thousand_state_trie_through_the_cli(tmp_path):
    path = tmp_path / "trie.aut"
    path.write_text(trie_text(random.Random(6), 10 ** 4))
    nfa_code, nfa_out, nfa_peak = traced_cli("check-nfa", str(path))
    dfa_code, dfa_out, dfa_peak = traced_cli("check-dfa", str(path))
    dot_code, _, dot_peak = traced_cli("export-dot", str(path), "--wheeler",
                                       "-o", str(tmp_path / "trie.dot"))
    assert (nfa_code, dfa_code, dot_code) == (0, 0, 0)
    assert len(order_lines(nfa_out)) == 10 ** 4
    assert order_lines(nfa_out) == order_lines(dfa_out)
    assert max(nfa_peak, dfa_peak, dot_peak) <= TRIE_PEAK_BOUND, (nfa_peak, dfa_peak, dot_peak)
