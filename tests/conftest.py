"""Fixtures shared by the test modules."""

import pytest

from gradedinv import modules, resolution


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
