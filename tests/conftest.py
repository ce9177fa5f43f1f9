"""Fixtures shared by the solver and dispatch tests."""

import pytest

from highs_spy import HighsSpy

from iesdispatch.solver import branch_bound


@pytest.fixture()
def highs_calls(monkeypatch) -> list:
    """The HiGHS methods that every core made from now on, kept or one-off, calls once it is loaded, in call order."""
    calls, init = [], branch_bound._ScipyCore.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._highs = HighsSpy(self._highs, calls)

    monkeypatch.setattr(branch_bound._ScipyCore, "__init__", spy)
    return calls
