"""The three benchmark workloads: every `cqed` invocation of one pass.

Sizes (grid steps, trials, ncut, dim, nmax, steps) are fixed.  The seed
goes into ``--seed`` of every Monte-Carlo invocation and draws a few
physical parameters from narrow ranges that leave the amount of work
unchanged, so every seed exercises the same code on different numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Invocation", "WORKLOADS", "build"]


@dataclass(frozen=True)
class Invocation:
    """One `cqed` command line, minus ``--out``."""

    command: str
    flags: tuple[tuple[str, object], ...] = ()
    fmt: str = "csv"
    seed: int | None = None

    def argv(self, out: str) -> list[str]:
        argv = [self.command]
        for name, value in self.flags:
            argv += [f"--{name}", repr(value) if isinstance(value, float) else str(value)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv + ["--format", self.fmt, "--out", out]


def _draw(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def _spectra(seed: int, tiny: bool) -> list[Invocation]:
    rng = np.random.default_rng(seed)
    steps = 21 if tiny else 401
    return [
        Invocation("transmon", (("ratios", "1,5"),) if tiny else ()),
        Invocation("spectrum", (("ncut", 6 if tiny else 24), ("levels", 2),
                                ("ng-steps", steps), ("ej", _draw(rng, 0.09, 0.11)))),
        Invocation("spectrum", (("ej", _draw(rng, 0.95, 1.05)), ("ng-steps", steps),
                                ("levels", 5)), fmt="json"),
    ]


def _ensembles(seed: int, tiny: bool) -> list[Invocation]:
    trials = 1000 if tiny else 20000
    return [
        Invocation("dephase", (("trials", trials),), seed=seed),
        Invocation("decay", (("trials", trials), ("steps", 41 if tiny else 401)), seed=seed),
        Invocation("dephase", (("trials", 1000 if tiny else 5000), ("sigma2", 0.1),
                               ("horizon", 20.0)), fmt="json", seed=seed),
    ]


def _dynamics(seed: int, tiny: bool) -> list[Invocation]:
    rng = np.random.default_rng(seed)
    scale = 20 if tiny else 1
    return [
        Invocation("tunnel-ode", (("steps", 20000 // scale), ("theta2", _draw(rng, 0.6, 0.8)))),
        Invocation("jc", (("nmax", 4 if tiny else 24), ("steps", 4001 // scale),
                          ("g", _draw(rng, 0.9, 1.1)))),
        Invocation("coherent", (("dim", 64 if tiny else 96), ("alpha-re", _draw(rng, 2.9, 3.1)),
                                ("steps", 601 // scale)), fmt="json"),
        Invocation("fluxwell", (("steps", 20001 // scale), ("phi-ext", _draw(rng, 0.48, 0.52)))),
        Invocation("washboard", (("steps", 20001 // scale), ("bias", _draw(rng, 0.4, 0.6))),
                   fmt="json"),
        Invocation("rabi", (("steps", 20001 // scale), ("omega", _draw(rng, 0.9, 1.1)))),
    ]


WORKLOADS = {"spectra": _spectra, "ensembles": _ensembles, "dynamics": _dynamics}


def build(workload: str, seed: int, tiny: bool = False) -> list[Invocation]:
    """The invocations of one pass of ``workload`` (``tiny`` for the self-test)."""
    return WORKLOADS[workload](seed, tiny)
