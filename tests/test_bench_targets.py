"""The traced benchmark wraps names in ``src/``: each must still exist.

``bench/spans.py`` lists the functions and methods ``bench/run.py --trace 1``
wraps by ``module[.owner].attr``; a rename in ``src/`` would otherwise show
only as a crash of the traced run.  The file is loaded by path and nothing
is wrapped.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.SETUP_TARGETS + module.HOT_TARGETS


@pytest.mark.parametrize(
    "target", _targets(), ids=lambda t: ".".join(filter(None, (t.module, t.owner, t.attr)))
)
def test_every_wrapped_name_exists(target):
    owner = importlib.import_module(target.module)
    if target.owner is not None:
        owner = getattr(owner, target.owner)
    assert target.attr in owner.__dict__, f"{target.name}: {target.attr} is gone"
