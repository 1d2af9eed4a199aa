"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines with elapsed times.  Criterion 1 is unattainable as stated
(see README): the full-diagonalization sweet-spot gap carries a physical
third-order correction -E_J^3/16 that is 60x larger than the stated 1e-6
tolerance.  It is asserted literally and therefore expected to fail;
everything else passes at its stated tolerance.
"""

import time

import numpy as np
import pytest

from cqed.chargebox import (
    charge_dispersion,
    exact_gap,
    second_order_gap,
    spectrum_sweep,
)
from cqed.decoherence import (
    NoiseModel,
    OUTCOME_LABELS,
    RngSpec,
    bell_state,
    decay_limited_ramsey,
    joint_table,
    ramsey_ensemble,
)
from cqed.errors import NoMinimum
from cqed.fock import coherent_ket, quad_stats
from cqed.jaynescummings import transfer_time, vacuum_rabi
from cqed.junction import first_minimum, squid_effective, two_island_dynamics
from cqed.linalg import Ket, fidelity, tridiagonal_eigh
from cqed.qubit import rabi_trace, ramsey_trace
from oracles import (
    JCSpace,
    _orbit,
    expectation,
    first_minimum_numeric,
    fock_ket,
    index_of,
    ladder_suite,
    marginal_table,
    rabi_numeric,
    ramsey_numeric,
    two_island_rk4,
    vacuum_rabi_closed_form,
)


_T0 = 0.0


@pytest.fixture(autouse=True)
def _criterion_timer():
    global _T0
    _T0 = time.perf_counter()
    yield


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{status}] {name}"
    if detail:
        line += f" ({detail})"
    line += f" [{time.perf_counter() - _T0:.2f} s]"
    print(line)


def sweet_spot_gap(ec, ej, ng, ncut):
    vals = spectrum_sweep(ec, ej, np.array([ng]), ncut, 2)[0]
    return vals[1] - vals[0]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated tolerance is physically unattainable: the exact sweet-spot "
        "gap is E_J - E_J^3/16 + O(E_J^5) = 0.09993755, i.e. 6.2e-5 below "
        "E_J, not within 1e-6 of it"
    ),
)
def test_criterion_01_charge_qubit_gap():
    gap = sweet_spot_gap(1.0, 0.1, 0.5, ncut=10)
    ok = abs(gap - 0.1) < 1e-6
    report(1, "charge-qubit sweet-spot gap = E_J within 1e-6", ok,
           f"measured gap {gap:.9f}, deviation {gap - 0.1:.3e}")
    assert ok


def test_criterion_02_gap_formula():
    worst = 0.0
    for dg in np.linspace(-0.2, 0.2, 41):
        full = sweet_spot_gap(1.0, 0.1, 0.5 + dg, ncut=10)
        worst = max(worst, abs(full - exact_gap(1.0, 0.1, dg)))
    asym = exact_gap(1.0, 0.02, 0.2)
    rel = abs(asym - 0.4) / 0.4
    ok = worst < 1e-3 and rel < 0.01
    report(2, "two-level gap formula vs full numerics", ok,
           f"max |diff| {worst:.2e}, asymptote off by {rel:.2%}")
    assert ok


def test_criterion_03_sweet_spot_flatness():
    h = 1e-3
    slope = (
        sweet_spot_gap(1.0, 0.1, 0.5 + h, 10) - sweet_spot_gap(1.0, 0.1, 0.5 - h, 10)
    ) / (2 * h)
    ok = abs(slope) < 1e-6
    report(3, "gap derivative vanishes at the sweet spot", ok, f"slope {slope:.2e}")
    assert ok


def test_criterion_04_second_order_crossing_scaling():
    out = second_order_gap(1.0, np.array([0.02, 0.04, 0.08]), ncut=10)
    ok = abs(out["slope"] - 2.0) <= 0.1
    report(4, "|0>-|2> avoided-crossing gap scales as E_J^2", ok,
           f"log-log slope {out['slope']:.4f}")
    assert ok


def test_criterion_05_transmon_dispersion():
    ratios = [1, 2, 5, 10, 20, 50]
    disps = []
    for r in ratios:
        ncut = max(5, int(np.ceil(np.sqrt(r))) + 4)
        disps.append(charge_dispersion(1.0, float(r), ncut)["dispersion"])
    monotone = all(a > b for a, b in zip(disps, disps[1:]))
    suppressed = disps[-1] < 0.01 * disps[0]
    ok = monotone and suppressed
    report(5, "charge dispersion shrinks into the transmon regime", ok,
           f"dispersion(1) {disps[0]:.3g} -> dispersion(50) {disps[-1]:.3g}")
    assert ok


def test_criterion_06_rabi_ramsey_closed_forms():
    rng = np.random.default_rng(2024)
    times = rng.uniform(0.0, 25.0, size=100)
    omega, delta = 1.7, 0.8
    rabi_err = max(
        abs(rabi_trace(omega, np.array([t]))[0][0] - rabi_numeric(omega, t))
        for t in times
    )
    ramsey_err = max(
        abs(ramsey_trace(delta, np.array([t]))[0] - ramsey_numeric(delta, t))
        for t in times
    )
    ok = rabi_err < 1e-10 and ramsey_err < 1e-10
    report(6, "Rabi/Ramsey closed forms match circuit evolution", ok,
           f"max errors {rabi_err:.1e} / {ramsey_err:.1e}")
    assert ok


def test_criterion_07_coherent_states():
    dim = 48
    ops = ladder_suite(dim)
    ok = True
    details = []
    for alpha in (0.5, 1.5, 2 + 1j):
        psi = coherent_ket(alpha, dim)
        n_mean = expectation(ops.number, psi).real
        n_var = expectation(ops.number @ ops.number, psi).real - n_mean**2
        target = abs(alpha) ** 2
        ok &= abs(n_mean - target) < 1e-7 and abs(n_var - target) < 1e-7
        details.append(f"{alpha}: <n> err {abs(n_mean - target):.1e}")
    for state, v_expected in (
        (coherent_ket(1.5, dim), 0.25),
        (fock_ket(0, dim), 0.25),
        (fock_ket(3, dim), 1.75),
    ):
        stats = quad_stats(state)
        ok &= abs(stats["var1"] - v_expected) < 1e-6
        ok &= abs(stats["var2"] - v_expected) < 1e-6
    report(7, "coherent-state statistics and quadrature variances", ok,
           "; ".join(details))
    assert ok


def test_criterion_08_jaynes_cummings():
    g = 1.0
    space = JCSpace(4)
    times = np.linspace(0.0, 2 * np.pi / g, 50)
    states = _orbit(g, times, space)
    norm_err = np.abs(np.linalg.norm(states, axis=1) - 1.0).max()
    fid_err = max(
        1 - fidelity(amps, vacuum_rabi_closed_form(g, t, space).amps)
        for t, amps in zip(times, states)
    )
    transfer = vacuum_rabi(g, np.array([transfer_time(g)]))
    transfer_err = abs(transfer["p_photon"][0] - 1.0)
    mid = vacuum_rabi_closed_form(g, np.pi / (4 * g), space).amps
    amp_err = max(
        abs(abs(mid[index_of(0, 1, space)]) - 1 / np.sqrt(2)),
        abs(abs(mid[index_of(1, 0, space)]) - 1 / np.sqrt(2)),
    )
    ok = norm_err < 1e-10 and fid_err < 1e-9 and transfer_err < 1e-10 and amp_err < 1e-12
    report(8, "Jaynes-Cummings vacuum Rabi dynamics", ok,
           f"norm err {norm_err:.1e}, fidelity err {fid_err:.1e}, "
           f"transfer err {transfer_err:.1e}, midpoint err {amp_err:.1e}")
    assert ok


def test_criterion_09_washboard_minimum():
    worst = max(
        abs(first_minimum(b) - first_minimum_numeric(b)) for b in (0.1, 0.5, 0.9)
    )
    raised = False
    try:
        first_minimum(1.01)
    except NoMinimum:
        raised = True
    ok = worst < 1e-8 and raised
    report(9, "washboard minimum arcsin vs Newton oracle", ok,
           f"max |diff| {worst:.1e}, NoMinimum at 1.01: {raised}")
    assert ok


def test_criterion_10_squid():
    i0 = 1.3
    closed = abs(squid_effective(i0, 0.5)["critical"])
    full = squid_effective(i0, 0.0)["critical"]
    grid_ok = all(
        abs(squid_effective(i0, f)["magnitude"] - 2 * i0 * abs(np.cos(np.pi * f))) < 1e-12
        for f in np.linspace(-1, 1, 101)
    )
    ok = closed < 1e-12 and abs(full - 2 * i0) < 1e-12 and grid_ok
    report(10, "SQUID critical current 2 I0 |cos(pi flux)|", ok,
           f"off at half quantum: {closed:.1e}")
    assert ok


def test_criterion_11_two_island_ode():
    state0 = (1e6, 1e6, 0.0, 0.7)
    traj = two_island_dynamics(state0, e_coupling=1e-6, dt=1e-3, steps=10_000)
    drift = np.abs(traj["delta"] - 0.7).max()
    total0 = state0[0] + state0[1]
    conservation = np.abs((traj["n1"] + traj["n2"] - total0) / total0).max()
    expected = traj["i0"] * np.sin(traj["delta"])
    current_rel = (np.abs(traj["current"] - expected) / np.abs(expected)).max()
    # the closed form against the fixed-step RK4 of the same equations
    rk4 = two_island_rk4(state0, 1e-6, 1e-3, 10_000)
    closed = np.stack([traj["n1"], traj["n2"], traj["theta1"], traj["theta2"]], axis=1)
    rk4_rel = (np.abs(closed - rk4) / np.maximum(np.abs(rk4), 1.0)).max()
    ok = drift < 1e-9 and conservation < 1e-9 and current_rel < 1e-6 and rk4_rel < 1e-12
    report(11, "two-island tunnelling: constant phase, conserved pairs, I0 sin(delta), RK4",
           ok, f"drift {drift:.1e}, conservation {conservation:.1e}, current {current_rel:.1e}, "
               f"vs RK4 {rk4_rel:.1e}")
    assert ok


def test_criterion_12_bell_tables():
    table = joint_table(bell_state("phi+"))
    ok = True
    for i in range(6):
        for j in range(6):
            v = table[i, j]
            ok &= min(abs(v - x) for x in (0.0, 0.25, 0.5)) < 1e-12
    expected = np.zeros((6, 6))
    same = {(0, 0): 0.5, (1, 1): 0.5, (2, 2): 0.5, (3, 3): 0.5, (4, 5): 0.5, (5, 4): 0.5}
    for (i, j), v in same.items():
        expected[i, j] = v
    for i in range(6):
        for j in range(6):
            if (i // 2) != (j // 2):
                expected[i, j] = 0.25
    ok &= np.abs(table - expected).max() < 1e-12
    marginals = marginal_table(bell_state("phi+"))
    ok &= all(abs(marginals[k] - 0.5) < 1e-12 for k in OUTCOME_LABELS)
    report(12, "Bell-state joint and marginal tables", ok,
           f"max table deviation {np.abs(table - expected).max():.1e}")
    assert ok


def test_criterion_13_dephasing_envelope():
    sigma2 = 0.5
    out = ramsey_ensemble(
        5.0, NoiseModel(np.sqrt(sigma2)), dt=0.02, horizon=10.0,
        trials=10_000, rng=RngSpec(12345),
    )
    t2, target = out["fitted_t2"], 2.0 / sigma2
    rel = abs(t2 - target) / target
    ok = rel < 0.10
    report(13, "white-noise dephasing envelope T2 = 2/sigma^2", ok,
           f"fitted T2 {t2:.3f} vs {target}, off by {rel:.1%}")
    assert ok


def test_criterion_14_decay_limited_ramsey():
    t1 = 1.0
    out = decay_limited_ramsey(
        t1, delta=20.0, dt=0.002, horizon=3.0, trials=10_000, rng=RngSpec(999)
    )
    ratio = out["fitted_t2"] / t1
    ok = 1.7 <= ratio <= 2.3
    report(14, "decay-limited Ramsey reaches T2 = 2 T1", ok,
           f"fitted T2/T1 = {ratio:.3f}")
    assert ok


def test_criterion_15_property_suites():
    rng = np.random.default_rng(77)
    ok = True
    # eigensolver reconstruction and orthonormality up to dim 64
    for n in (2, 5, 16, 33, 64):
        diag, off = rng.normal(size=(1, n)), rng.normal(size=(1, n - 1))
        m = np.diag(diag[0]) + np.diag(off[0], 1) + np.diag(off[0], -1)
        vals, vecs = tridiagonal_eigh(diag, off)
        recon = vecs[0] @ np.diag(vals[0]) @ vecs[0].T
        ok &= np.abs(recon - m).max() < 1e-9 * np.linalg.norm(m)
        ok &= np.abs(vecs[0].T @ vecs[0] - np.eye(n)).max() < 1e-10
    # propagation exp(-i H t) from the eigenpairs: unitarity and composition
    vals, vecs = tridiagonal_eigh(rng.normal(size=(1, 8)), rng.normal(size=(1, 7)))

    def evolve(t, amps):
        return vecs[0] @ (np.exp(-1j * vals[0] * t) * (vecs[0].T @ amps))

    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = Ket(v / np.linalg.norm(v))
    for t in rng.uniform(0, 10, size=5):
        ok &= abs(np.linalg.norm(evolve(t, psi.amps)) - 1) < 1e-10
    once = evolve(1.9, psi.amps)
    twice = evolve(1.2, evolve(0.7, psi.amps))
    ok &= np.abs(once - twice).max() < 1e-9
    # truncated-commutator artifact
    dim = 11
    ops = ladder_suite(dim)
    defect = ops.lower @ ops.raise_ - ops.raise_ @ ops.lower - np.eye(dim)
    expected = np.zeros(dim)
    expected[dim - 1] = -dim
    ok &= np.abs(np.diag(defect) - expected).max() < 1e-13
    ok &= np.abs(defect - np.diag(np.diag(defect))).max() == 0.0
    # Monte-Carlo bit-reproducibility under a fixed seed
    kwargs = dict(dt=0.02, horizon=4.0, trials=1000)
    a = ramsey_ensemble(5.0, NoiseModel(0.7), rng=RngSpec(31), **kwargs)
    b = ramsey_ensemble(5.0, NoiseModel(0.7), rng=RngSpec(31), **kwargs)
    ok &= np.array_equal(a["p_plus"], b["p_plus"])
    report(15, "property suites: eigen, evolve, truncation artifact, rng", ok)
    assert ok
