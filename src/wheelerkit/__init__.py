"""wheelerkit: Wheeler automata and Wheeler languages.

Deciders for automaton- and language-level Wheelerness, the minimum-WDFA
construction, alphabet-order (generalized Wheeler) search, and the hardness
reduction gadgets, plus a command line front end.
"""

from .alphabet import (
    INITIAL_MARK,
    OrderedAlphabet,
    is_suffix,
    word,
)
from .automaton import (
    Automaton,
    accepts,
    determinize,
    dfa_walk,
    language_equal,
    minimize,
    parse_automaton,
    run,
    serialize_automaton,
    to_dot,
    trim_basic,
    with_alphabet_order,
)
from .errors import (
    AlphabetMismatch,
    AlphabetTooLarge,
    ConstructionInconsistent,
    FormatError,
    InfeasibleEnumeration,
    InternalDisagreement,
    NotDeterministic,
    PreconditionViolated,
    SearchBudgetExceeded,
    StateBlowupExceeded,
    TooManyElements,
    WheelerkitError,
)
from .gw import (
    BetweennessInstance,
    gw_automaton_check,
    gw_language_check,
    parse_betweenness,
    serialize_betweenness,
    solve_betweenness,
)
from .language import (
    LanguageVerdict,
    SearchCaps,
    Witness,
    check_witness_dfa,
    gamma_length_bound,
    is_language_wheeler_dfa,
    is_language_wheeler_nfa,
)
from .minwdfa import (
    Wdfa,
    build_min_wdfa,
    certifying_depth,
)
from .reductions import (
    ReductionReport,
    reduce_betweenness_to_dfa,
    reduce_nfa_wheeler_to_gw,
    reduce_universality,
)
from .wheeler import (
    LambdaMap,
    WheelerOrder,
    WheelerViolation,
    dfa_wheeler_order,
    input_consistency,
    nfa_wheeler_search,
    verify_wheeler,
)

__version__ = "0.1.0"
