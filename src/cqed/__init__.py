"""Desk-scale numerical simulator for superconducting circuit QED.

Subpackages by physics area:

* `cqed.linalg` - `Ket`, the one state-vector type, fidelities, and
  batched tridiagonal eigenpairs (Sturm bisection, inverse iteration).
* `cqed.fock` - truncated oscillator: coherent states, their free
  evolution, quadrature statistics.
* `cqed.qubit` - the six axis states, Rabi and Ramsey fringes.
* `cqed.junction` - semiclassical Josephson: washboard, SQUID,
  flux-qubit double well, two-island tunnelling in closed form.
* `cqed.chargebox` - Cooper-pair box / transmon spectra, gaps,
  charge dispersion, second-order avoided crossings.
* `cqed.jaynescummings` - resonant qubit-cavity exchange.
* `cqed.decoherence` - T1 decay, dephasing ensembles, T2 limits,
  Bell states and joint outcome tables.
* `cqed.fitting` - dominant frequency and exponential fringe envelopes
  of sampled (t, values) arrays.
* `cqed.errors` - `CqedError` and its subclasses (CLI exit code 3).
* `cqed.cli` - the `cqed` command: deterministic CSV/JSON sweeps.

Units: hbar = 1 throughout (time is inverse energy); flux quantum = 1 in
the Josephson modules.
"""

__version__ = "0.1.0"
