"""Shared fixtures: schemas, instances, transducers, networks."""

from __future__ import annotations

import pytest

from repro.db import Instance, schema, instance
from repro.net import ConvergenceTracker, is_converged, line, ring, single, star


@pytest.fixture
def s2():
    """A schema with one binary relation S."""
    return schema(S=2)


@pytest.fixture
def s1():
    """A schema with one unary relation S."""
    return schema(S=1)


@pytest.fixture
def chain_instance(s2):
    """S = a chain 1→2→3→4."""
    return instance(s2, S=[(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def small_set(s1):
    """S = {1, 2, 3}."""
    return instance(s1, S=[(1,), (2,), (3,)])


@pytest.fixture
def empty2(s2):
    return Instance.empty(s2)


@pytest.fixture
def net1():
    return single()


@pytest.fixture
def net2():
    return line(2)


@pytest.fixture
def net3_line():
    return line(3)


@pytest.fixture
def net4_ring():
    return ring(4)


@pytest.fixture
def net4_star():
    return star(4)


@pytest.fixture
def convergence_checks(monkeypatch):
    """Run the exact convergence test beside the tracker at every check.

    ``convergence_checks(driver)`` patches ``ConvergenceTracker.check``
    and returns the list that collects one ``(incremental, exact)``
    verdict pair per check, *exact* being the from-scratch
    :func:`is_converged` on the same input.  *driver* names the verdict
    the run acts on: ``"incremental"`` (the tracker's) or ``"exact"``.
    """
    tracked = ConvergenceTracker.check

    def install(driver):
        verdicts = []

        def check(tracker, config, produced):
            verdict = tracked(tracker, config, produced)
            exact = is_converged(tracker.network, tracker.transducer, config, produced)
            verdicts.append((verdict, exact))
            return exact if driver == "exact" else verdict

        monkeypatch.setattr(ConvergenceTracker, "check", check)
        return verdicts

    return install
