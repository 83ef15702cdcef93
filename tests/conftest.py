"""Fixtures shared by the unitarity-check tests."""

import pytest

from gqt import phasemat, qstate


@pytest.fixture
def exact_calls(monkeypatch):
    """Sizes of the matrices the exact check runs on, in qstate and phasemat."""
    calls = []

    def counting(exact):
        def counted(m):
            calls.append(m.shape[0])
            return exact(m)

        return counted

    monkeypatch.setattr(qstate, "_unitarity_defect", counting(qstate._unitarity_defect))
    monkeypatch.setattr(phasemat, "_unitarity_defect", counting(phasemat._unitarity_defect))
    return calls


@pytest.fixture
def uncached_table_error():
    """Clear the per-size cache of the root table's error before and after a
    test that patches what it reads (``_root_table`` or ``_WIDE``)."""
    qstate._root_table_error.cache_clear()
    yield
    qstate._root_table_error.cache_clear()
