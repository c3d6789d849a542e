"""Ordered alphabets, words, and the co-lexicographic order.

Words are plain tuples of symbol tokens; the empty tuple is the empty word.
Symbols are arbitrary printable tokens (not necessarily single characters),
so constructions that mint fresh symbols can use names like ``x1`` or ``e!``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import WheelerkitError

# Pseudo-label for the initial state (the one state with no in-edges).
# It is reserved: no alphabet may contain it, and it sorts below every symbol.
INITIAL_MARK = "#"


def word(text):
    """Build a word from a whitespace-separated token string ('' -> epsilon)."""
    return tuple(text.split())


@dataclass(frozen=True)
class OrderedAlphabet:
    """A symbol set with a total order; position in `symbols` is the rank."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        seen = set()
        for s in self.symbols:
            if not isinstance(s, str) or not s or any(c.isspace() for c in s):
                raise WheelerkitError(f"bad symbol token: {s!r}")
            if s == INITIAL_MARK:
                raise WheelerkitError(f"{INITIAL_MARK!r} is reserved for the initial state")
            if s in seen:
                raise WheelerkitError(f"duplicate symbol: {s}")
            seen.add(s)

    @cached_property
    def position(self):
        return {s: i for i, s in enumerate(self.symbols)}

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, sym):
        return sym in self.position

    def colex_key(self, w):
        """Sort key realizing the co-lexicographic order: ranks of the reversed word."""
        pos = self.position
        return tuple(pos[s] for s in reversed(w))


def is_suffix(a, b):
    """True iff word `a` is a suffix of word `b` (epsilon suffixes everything)."""
    if len(a) > len(b):
        return False
    return not a or b[-len(a):] == a
