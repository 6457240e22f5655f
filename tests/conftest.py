"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from gradedinv import constructions, groebner, modules, resolution, theorems


@pytest.fixture
def syzygy_calls(monkeypatch):
    """A list that gets one entry per syzygy_module call during the test."""
    calls = []
    real = modules.syzygy_module

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(modules, "syzygy_module", counted)
    monkeypatch.setattr(resolution, "syzygy_module", counted)
    return calls


class GroebnerCalls(Counter):
    """groebner_basis calls counted by the ideal their generators span.

    The key is the ring plus the set of nonzero generators, so I + J and
    J + I count as one ideal; of(gens) reads the count for a generator list.
    """

    @staticmethod
    def key(gens):
        gens = [g for g in gens if not g.is_zero()]
        ring = gens[0].ring if gens else None
        return ring, frozenset(tuple(sorted(g.terms.items())) for g in gens)

    def of(self, gens):
        return self[self.key(gens)]


@pytest.fixture
def groebner_calls(monkeypatch):
    """A GroebnerCalls that counts every groebner_basis call during the test."""
    calls = GroebnerCalls()
    real = groebner.groebner_basis

    def counted(generators, *args, **kwargs):
        calls[calls.key(generators)] += 1
        return real(generators, *args, **kwargs)

    for module in (groebner, constructions, theorems):
        monkeypatch.setattr(module, "groebner_basis", counted)
    return calls
