"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from ym4 import wave


@pytest.fixture
def nan_density_peak(monkeypatch):
    """Make the second energy-density evaluation in ym4.wave, the blow-up
    check's peak after the first step, all NaN; every other evaluation is
    the real one."""
    real, calls = wave.energy_density, []

    def density(F):
        calls.append(None)
        dens = real(F)
        return np.full_like(dens, np.nan) if len(calls) == 2 else dens

    monkeypatch.setattr(wave, "energy_density", density)
