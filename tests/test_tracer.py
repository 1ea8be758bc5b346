"""The benchmark tracer's patch sites must exist in the library.

``perfbench/tracer.py`` (imported, never modified) wraps library functions
where the library looks them up, and records a name it cannot find as
absent instead of failing.  So a renamed or moved function would only
show as a missing span in a traced benchmark run; here it fails a test.
"""

import importlib
import sys
from pathlib import Path

import pytest

from ampso import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_lookup_resolves(tracer):
    for name, module, attribute in tracer.LOOKUPS + tracer.CAMPAIGN_LOOKUPS:
        assert hasattr(importlib.import_module(module), attribute), f"{name}: {module}.{attribute} is absent"


def test_campaign_patch_sites_exist():
    assert {"ampso", "gpso"} <= set(harness.ALGORITHMS)
    assert callable(harness.make_spec)
    assert callable(harness.execute_run)
