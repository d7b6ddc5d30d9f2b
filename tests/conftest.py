"""Fixtures shared by the test modules."""

import pytest

from resloc import spaces


@pytest.fixture
def series_route(monkeypatch):
    """Call to make the Kirwan integrals take every residue by the series
    expansion at infinity instead of pole by pole, so a value can be checked
    through both routes."""

    def use():
        real = spaces.res_x_plus

        def by_series(h, var, method):
            return real(h, var, method="series")

        monkeypatch.setattr(spaces, "res_x_plus", by_series)

    return use
