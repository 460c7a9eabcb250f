"""Fixtures shared by the test modules."""

import pytest

from annurates import identities


@pytest.fixture
def perturbed_level(monkeypatch):
    """identities.level_due with mode "closed" off by a factor of 1+1e-6.

    The fixed identity suite reads its accumulators from the identities
    module at each call, so every check that compares the closed level
    annuity with another path sees the perturbation.
    """
    level_due = identities.level_due

    def perturbed(k, rate, mode="auto"):
        value = level_due(k, rate, mode)
        return value * (1.0 + 1e-6) if mode == "closed" else value

    monkeypatch.setattr(identities, "level_due", perturbed)
