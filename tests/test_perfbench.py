"""The benchmark's tracer (`perfbench/tracing.py`) wraps library functions by
name, so a rename or deletion in the library breaks `--trace 1` runs."""

import importlib
import importlib.util
import pathlib

from wheelerkit import OrderedAlphabet, SearchCaps
from wheelerkit.language import collect_candidates, search_witness

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = load_tracing()
    for qualname in tracing.TRACED:
        module, name = qualname.split(".")
        assert callable(getattr(importlib.import_module(f"wheelerkit.{module}"), name, None)), \
            qualname
    assert callable(OrderedAlphabet.colex_key)


def test_counting_candidates_leaves_the_entering_walk_where_the_search_left_it(
        mind4_nonwheeler):
    """The tracer counts the entering words taken so far; counting them must
    not run the lazy walk on, or a traced run would pay for the whole walk."""
    candidates = collect_candidates(mind4_nonwheeler, SearchCaps.default(mind4_nonwheeler.n))
    witness = search_witness(mind4_nonwheeler, candidates)
    assert witness is not None
    taken = sum(len(words) for words in candidates.entering.values())
    tracer = load_tracing().Tracer()
    tracer.add_candidates(candidates)
    assert tracer.counts["language.collect_candidates.entering_words"] == taken
    assert sum(len(words) for words in candidates.entering.values()) == taken
    assert candidates.walk is not None
    assert candidates.layers == len(witness.gamma) + 1
