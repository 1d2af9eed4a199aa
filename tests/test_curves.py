"""Every sampled curve is a plain 1-D float64 array, one value per time."""

import numpy as np
import pytest

from cqed.decoherence import (
    NoiseModel,
    RngSpec,
    decay_limited_ramsey,
    ramsey_ensemble,
    t1_curves,
)
from cqed.jaynescummings import vacuum_rabi
from cqed.junction import two_island_dynamics
from cqed.qubit import rabi_trace, ramsey_trace

TIMES = np.linspace(0.0, 3.0, 7)
MC = {"dt": 0.01, "trials": 5, "rng": RngSpec(0)}
JC_CURVES = ("p_qubit_excited", "p_photon")


def _on_given_times(*curves):
    return TIMES, TIMES, curves


def _ramsey_ensemble(sigma):
    out = ramsey_ensemble(5.0, NoiseModel(sigma), 0.02, 4.0, 1000, RngSpec(3))
    return out["times"], np.arange(1, 200 + 1) * 0.02, [out["p_plus"]]


def _decay_limited_ramsey():
    out = decay_limited_ramsey(1.0, 20.0, 0.004, 3.0, 300, RngSpec(3))
    return out["times"], np.arange(1, 750 + 1) * 0.004, [out["p_plus"]]


def _two_island_current():
    traj = two_island_dynamics((1.0, 2.0, 0.0, 0.5), 0.1, 0.01, 50)
    return traj["times"], np.arange(50 + 1) * 0.01, [traj["current"]]


CASES = {
    "rabi_trace": lambda: _on_given_times(*rabi_trace(1.0, TIMES)),
    "ramsey_trace": lambda: _on_given_times(ramsey_trace(1.0, TIMES)),
    "t1_curves": lambda: _on_given_times(*t1_curves(1.0, TIMES, MC).values()),
    "ramsey_ensemble-noiseless": lambda: _ramsey_ensemble(0.0),
    "ramsey_ensemble-noisy": lambda: _ramsey_ensemble(0.7),
    "decay_limited_ramsey": _decay_limited_ramsey,
    "vacuum_rabi": lambda: _on_given_times(
        *(vacuum_rabi(1.0, TIMES)[key] for key in JC_CURVES)
    ),
    "two_island_current": _two_island_current,
}


@pytest.mark.parametrize("name", CASES)
def test_curves_are_float64_arrays_on_their_time_grid(name):
    times, expected_times, curves = CASES[name]()
    assert np.array_equal(times, expected_times)
    assert len(curves) >= 1
    for curve in curves:
        assert isinstance(curve, np.ndarray)
        assert curve.dtype == np.float64
        assert curve.shape == (len(times),)
