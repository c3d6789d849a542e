"""The benchmark's tracer (`perfbench/tracing.py`) wraps library functions by
name, so a rename or deletion in the library breaks `--trace 1` runs."""

import importlib
import importlib.util
import pathlib

from wheelerkit import OrderedAlphabet

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for qualname in tracing.TRACED:
        module, name = qualname.split(".")
        assert callable(getattr(importlib.import_module(f"wheelerkit.{module}"), name, None)), \
            qualname
    assert callable(OrderedAlphabet.colex_key)
