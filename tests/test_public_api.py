"""The package's public names, pinned: a name joins or leaves the API only
by an edit here."""

import ast
import inspect
import pathlib
from collections import Counter

import pytest

import wheelerkit

PUBLIC = [
    "AlphabetMismatch", "AlphabetTooLarge", "Automaton", "BetweennessInstance",
    "ConstructionInconsistent", "FormatError", "INITIAL_MARK", "InfeasibleEnumeration",
    "InternalDisagreement", "LambdaMap", "LanguageVerdict", "NotDeterministic",
    "OrderedAlphabet", "PreconditionViolated", "ReductionReport", "SearchBudgetExceeded",
    "SearchCaps", "StateBlowupExceeded", "TooManyElements", "Wdfa", "WheelerOrder",
    "WheelerViolation", "WheelerkitError", "Witness", "accepts",
    "build_min_wdfa", "certifying_depth", "check_witness_dfa", "determinize", "dfa_walk",
    "dfa_wheeler_order", "gamma_length_bound", "gw_automaton_check", "gw_language_check",
    "input_consistency", "is_language_wheeler_dfa", "is_language_wheeler_nfa", "is_suffix",
    "language_equal", "minimize", "nfa_wheeler_search", "parse_automaton",
    "parse_betweenness", "reduce_betweenness_to_dfa", "reduce_nfa_wheeler_to_gw",
    "reduce_universality", "run", "serialize_automaton", "serialize_betweenness",
    "solve_betweenness", "to_dot", "trim_basic", "verify_wheeler", "with_alphabet_order",
    "word",
]

# Test-only references (now in tests/reference.py) and the minimum-WDFA
# reference definitions, which stay in wheelerkit.minwdfa unexported.
NOT_PUBLIC = [
    "ColexVerdict", "Fingerprint", "PathCoherenceCounterexample", "PrefixList",
    "check_witness_nfa", "colex_compare", "compute_fingerprint", "dfa_witness_bound_ok",
    "enumerate_prefixes", "find_witness", "is_primitive", "nfa_witness_bound_ok",
    "path_coherence_check", "recheck_violation", "relabel_by_order", "right_context_equal",
    "WordNotReadable",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(wheelerkit).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert PUBLIC == sorted(PUBLIC)
    assert names == PUBLIC


@pytest.mark.parametrize("name", NOT_PUBLIC)
def test_name_is_not_importable_from_the_package(name):
    with pytest.raises(ImportError):
        exec(f"from wheelerkit import {name}", {})


# Library definitions nothing in the library refers to, kept because the
# benchmark's tracer looks them up by name (ROADMAP item 2).
TRACED_ONLY = ["minwdfa.compute_fingerprint", "minwdfa.enumerate_prefixes"]


def _referenced(node):
    """Names an AST subtree refers to: names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_library_definition_is_used_or_exported():
    """A module-level function or class in the package is referred to by
    library code outside its own definition, or exported: a path that a
    faster one replaced, or a test-only reference, cannot stay behind."""
    package = pathlib.Path(wheelerkit.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))
             if p.name != "__init__.py"}
    refs = Counter(name for tree in trees.values() for name in _referenced(tree))
    unused = [f"{module}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in PUBLIC
              # every reference lies inside the definition itself
              and refs[node.name] == Counter(_referenced(node))[node.name]]
    assert sorted(unused) == TRACED_ONLY


def test_every_library_import_is_used():
    """A name a library module imports is referred to in that module: an
    import that a removed call left behind cannot stay."""
    package = pathlib.Path(wheelerkit.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{path.stem}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in loaded]
    assert unused == []
