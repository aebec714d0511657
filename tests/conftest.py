"""Shared fixtures and reproducibility plumbing for the test suite.

Three jobs live here:

* session fixtures precomputing the small exhaustive graph families many
  tests sweep over (the exponential enumerations run once per session);
* hypothesis profiles threading ``REPRO_SEED`` into every generator-driven
  test (see ``tests/strategies.py``, the shared generator library) — set
  ``HYPOTHESIS_PROFILE=ci`` for the larger CI sweep, ``dev`` for a quick
  local pass;
* failure reporting: every failing test gets a ``repro configuration``
  section naming the active seed, backend and delta mode, so a
  flake from one leg of the backend matrix can be replayed exactly.
"""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import HealthCheck, settings

# the shared generator library lives next to this conftest; make it
# importable as ``strategies`` from every test package
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from strategies import config_text  # noqa: E402

_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.register_profile("default", max_examples=60, **_COMMON)
settings.register_profile("dev", max_examples=15, **_COMMON)
settings.register_profile("ci", max_examples=120, **_COMMON)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_report_header(config):
    return config_text()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        report.sections.append(("repro configuration", config_text()))


from repro.db import (  # noqa: E402
    all_graphs,
    all_graphs_up_to_iso,
    chain,
    chain_and_cycles,
    cycle,
    diagonal_graph,
    linear_order,
    random_graph,
    two_branch_tree,
)


@pytest.fixture(scope="session")
def graphs_2():
    """All directed graphs (with loops) over subsets of {0, 1}: 16 graphs."""
    return list(all_graphs(2))


@pytest.fixture(scope="session")
def graphs_3():
    """All directed graphs (with loops) over subsets of {0, 1, 2}: 512 graphs."""
    return list(all_graphs(3))


@pytest.fixture(scope="session")
def graphs_3_loopfree():
    """All loop-free directed graphs over subsets of {0, 1, 2}: 64 graphs."""
    return list(all_graphs(3, loops=False))


@pytest.fixture(scope="session")
def graphs_iso_3():
    """One representative per isomorphism class of graphs on at most 3 nodes."""
    return all_graphs_up_to_iso(3)


@pytest.fixture(scope="session")
def assorted_graphs():
    """A mixed bag of named graph families used by integration-style tests."""
    return [
        chain(2),
        chain(5),
        cycle(3),
        cycle(6),
        chain_and_cycles(3, [4]),
        chain_and_cycles(4, [2, 3]),
        two_branch_tree(2, 2),
        two_branch_tree(3, 5),
        diagonal_graph([1, 2, 3]),
        linear_order(4),
        random_graph(5, 0.3, seed=7),
        random_graph(6, 0.2, seed=11),
    ]
