"""Every function the benchmark wraps in a span still exists, and the
benchmark's id tables list what the package has.

``perfbench/spans.py`` skips a target that the package no longer has and
reports its per-layer metrics as 0, so a renamed function would silently
drop out of the benchmark.  This test loads that file by path and resolves
each ``(module, attribute)`` target the way its tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize(
    "module_name, path", [(m, p) for _, m, p in _spans().TARGETS], ids=lambda x: x
)
def test_target_resolves(module_name, path):
    module = importlib.import_module(f"mqlogic.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # a method is patched on the class that defines it
        assert attr in vars(getattr(module, owner_name)), f"{module_name}.{path}"
    else:
        assert getattr(module, attr, None) is not None, f"{module_name}.{path}"


def test_id_tables_match_the_package():
    # the per-layer metric names come from these tables: a stale entry
    # reads 0 without an error
    from mqlogic.experiments import EXPERIMENT_IDS
    from mqlogic.fuzz import RULE_CHOICES
    from mqlogic.semantics import SUM, SUP

    spans = _spans()
    src = Path(importlib.import_module("mqlogic").__file__).parent
    assert spans.EXPERIMENT_IDS == EXPERIMENT_IDS
    assert spans.FUZZ_RULES == RULE_CHOICES
    assert spans.FUZZ_MODES == (SUM, SUP)
    assert sorted(spans.SRC_MODULES) == sorted(p.stem for p in src.glob("*.py"))
