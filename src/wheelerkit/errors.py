"""Exception types shared across the toolkit.  Three families decide the CLI
exit code: a BoundExceeded (a bound stopped the work) exits 2, an
InternalDisagreement (a failed self-check) 4, any other WheelerkitError 3."""


class WheelerkitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(WheelerkitError):
    """Malformed input file.  Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotDeterministic(WheelerkitError):
    """A DFA-only operation received a nondeterministic automaton."""


class AlphabetMismatch(WheelerkitError):
    """Two automata were compared over different symbol sets."""


class BoundExceeded(WheelerkitError):
    """A budget or cap stopped the work before it reached a verdict."""


class SearchBudgetExceeded(BoundExceeded):
    """A backtracking search ran out of its node budget before deciding."""


class StateBlowupExceeded(BoundExceeded):
    """Subset construction passed the configured state cap."""


class InfeasibleEnumeration(BoundExceeded):
    """A bounded enumeration would exceed its word cap."""


class AlphabetTooLarge(BoundExceeded):
    """Order search over sigma! permutations refused: alphabet over budget."""


class TooManyElements(BoundExceeded):
    """Betweenness solver refused: element set over budget."""


class PreconditionViolated(WheelerkitError):
    """An operation's documented precondition does not hold for the input."""


class ConstructionInconsistent(WheelerkitError):
    """The WDFA construction hit a case that cannot occur for a Wheeler language.

    Upstream deciders interpret this as evidence that the language is not
    Wheeler.  `word` and `symbol` identify the offending transition probe
    when one exists.
    """

    def __init__(self, message, word=None, symbol=None):
        super().__init__(message)
        self.word = word
        self.symbol = symbol


class InternalDisagreement(WheelerkitError):
    """A self-check failed: two deciders contradict each other, or a result
    fails its own verification (bug trap)."""
