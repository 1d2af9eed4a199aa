"""Byte-identity of every command's default output, plus a few extra cases.

``golden/digests.json`` holds the sha256 of each command's output with
default flags, as CSV and as JSON, and of each argv in ``CASES``.  The
cases cover paths the defaults skip: ``decay`` runs no Monte-Carlo at its
default ``--trials 0``; the long ``tunnel-ode``, ``coherent`` and ``jc``
runs pin the dynamics paths, and the long ``washboard``, ``rabi`` and
``fluxwell`` runs and the five-level ``spectrum`` pin the table writer, at
the sizes the benchmark runs them, and ``spectrum-ncut24`` pins the
benchmark's 49-charge spectrum.  ``decay-bench`` and ``dephase-bench`` are
the benchmark's own ensembles; 20000 trials end ``dephase``'s on a partial
trajectory block.  ``coherent-complex`` (a complex alpha, a negative
omega0) and ``coherent-bench`` (a non-integer alpha at the benchmark's
size) pin the cross terms of the complex products that ``coherent-large``'s
alpha = 3 hides.  The ``transmon-*`` cases pin an unsorted ratio list with
a duplicate and a ratio below 1, and a fixed ``--ncut``.
``jc-g`` runs ``jc`` at a coupling other than 1, where rounding in g t
reaches the printed digits, and the ``bell-*`` cases pin the three Bell
states the default ``phi+`` skips.  ``tunnel-ode-unequal`` runs unequal pair
numbers under a negative coupling, ``fluxwell-six`` finds six minima, and
``coherent-dim130`` runs a complex alpha above the benchmark's dimension.
``coherent-dim700`` (alpha = 20) and ``coherent-dim720`` (a complex alpha)
pin the quadrature statistics at large dimensions, the second within 1 % of
the old 16 dim^2 size cap.  ``decay-offgrid`` samples a 472-step decay at
times off the dt grid, ``decay-survivors`` runs a decay in which most
trajectories never jump, and ``squid-branch`` pins a second branch of the
effective SQUID junction at a smaller critical current.
``tunnel-ode-stride`` prints every 168th of 1003 steps, so 163 steps run
after its last printed row.  ``washboard-mixed`` puts phi = 0 (u = -1, an
integer) at row 1024: its second 1024-row block holds integer-valued cells
and the others do not.
A change that alters an output on purpose regenerates the file, which
prints the name of every digest it adds, moves or drops, and says in its
notes which digests moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from cqed.cli import run_command

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
COMMANDS = ("spectrum", "rabi", "ramsey", "coherent", "washboard", "squid", "fluxwell",
            "jc", "decay", "dephase", "bell", "transmon", "tunnel-ode")
FORMATS = ("csv", "json")
#: Extra argv cases, keyed by the name their digests are stored under.
CASES = {
    "decay-mc": ["decay", "--trials", "2000", "--seed", "7"],
    "decay-bench": ["decay", "--trials", "20000", "--steps", "401", "--seed", "1"],
    "dephase-bench": ["dephase", "--trials", "20000", "--seed", "1"],
    "dephase-long": ["dephase", "--trials", "5000", "--sigma2", "0.1", "--horizon", "20",
                     "--seed", "7"],
    "tunnel-ode-long": ["tunnel-ode", "--steps", "20000", "--theta2", "0.7"],
    "coherent-large": ["coherent", "--dim", "96", "--alpha-re", "3.0", "--steps", "601"],
    "coherent-complex": ["coherent", "--alpha-re", "2.1", "--alpha-im", "-1.7", "--omega0", "-1.3",
                         "--dim", "64", "--steps", "301"],
    "coherent-bench": ["coherent", "--dim", "96", "--alpha-re", "2.953", "--steps", "601"],
    "jc-large": ["jc", "--nmax", "24", "--steps", "4001"],
    "jc-g": ["jc", "--g", "0.9734", "--nmax", "24", "--steps", "4001"],
    "washboard-long": ["washboard", "--steps", "20001", "--bias", "0.462366"],
    "rabi-long": ["rabi", "--steps", "20001", "--omega", "0.984665"],
    "fluxwell-long": ["fluxwell", "--steps", "20001", "--phi-ext", "0.517946"],
    "spectrum-levels": ["spectrum", "--ej", "1.045046", "--ng-steps", "401", "--levels", "5"],
    "spectrum-ncut24": ["spectrum", "--ncut", "24", "--levels", "2", "--ng-steps", "401",
                        "--ej", "0.1"],
    "transmon-mixed": ["transmon", "--ratios", "50,1,20,2,2,0.5"],
    "transmon-ncut": ["transmon", "--ratios", "1,5,10", "--ncut", "12"],
    "bell-phi-": ["bell", "--state", "phi-"],
    "bell-psi+": ["bell", "--state", "psi+"],
    "bell-psi-": ["bell", "--state", "psi-"],
    "tunnel-ode-unequal": ["tunnel-ode", "--n1", "300000", "--n2", "2000000",
                           "--e-coupling=-2e-6", "--steps", "5000"],
    "fluxwell-six": ["fluxwell", "--l", "5", "--ej", "1.0", "--phi-min=-3", "--phi-max", "3",
                     "--steps", "20001"],
    "coherent-dim130": ["coherent", "--dim", "130", "--alpha-re", "4.5", "--alpha-im", "0.3",
                        "--steps", "61"],
    "coherent-dim700": ["coherent", "--dim", "700", "--alpha-re", "20", "--steps", "101"],
    "coherent-dim720": ["coherent", "--dim", "720", "--alpha-re", "4.5", "--alpha-im", "0.3",
                        "--steps", "61"],
    "decay-offgrid": ["decay", "--trials", "3000", "--t-max", "3.3", "--dt", "0.007",
                      "--steps", "57", "--seed", "5"],
    "decay-survivors": ["decay", "--trials", "1000", "--t1", "5", "--t-max", "0.5",
                        "--dt", "0.05", "--steps", "11", "--seed", "3"],
    "squid-branch": ["squid", "--steps", "20001", "--phi-min=-2.5", "--phi-max", "2.5",
                     "--branch", "1", "--i0", "0.7"],
    "tunnel-ode-stride": ["tunnel-ode", "--steps", "1003", "--max-rows", "7"],
    "washboard-mixed": ["washboard", "--phi-min=-0.25", "--phi-max", "0.75", "--steps", "4097"],
}


def digest(argv: list[str], fmt: str, directory: Path) -> str:
    out = directory / f"out.{fmt}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_command([*argv, "--format", fmt, "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_default_output_matches_golden_digest(tmp_path, command, fmt):
    golden = json.loads(GOLDEN.read_text())
    assert digest([command], fmt, tmp_path) == golden[f"{command}.{fmt}"]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_case_output_matches_golden_digest(tmp_path, case, fmt):
    golden = json.loads(GOLDEN.read_text())
    assert digest(CASES[case], fmt, tmp_path) == golden[f"{case}.{fmt}"]


if __name__ == "__main__":
    argvs = {c: [c] for c in COMMANDS} | CASES
    with tempfile.TemporaryDirectory() as tmp:
        digests = {f"{name}.{f}": digest(argv, f, Path(tmp))
                   for name, argv in argvs.items() for f in FORMATS}
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for key in sorted(pinned.keys() | digests.keys()):
        if key not in pinned:
            print(f"added {key}")
        elif key not in digests:
            print(f"dropped {key}")
        elif pinned[key] != digests[key]:
            print(f"moved {key}")
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
