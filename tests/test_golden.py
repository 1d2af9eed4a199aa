"""Byte-identity of every command's default output.

``golden/digests.json`` holds the sha256 of each command's output with
default flags, as CSV and as JSON.  A change that alters an output on
purpose regenerates the file and says in its notes which digests moved:

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


def digest(command: str, fmt: str, directory: Path) -> str:
    out = directory / f"{command}.{fmt}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_command([command, "--format", fmt, "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_default_output_matches_golden_digest(tmp_path, command, fmt):
    golden = json.loads(GOLDEN.read_text())
    assert digest(command, fmt, tmp_path) == golden[f"{command}.{fmt}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {f"{c}.{f}": digest(c, f, Path(tmp)) for c in COMMANDS for f in FORMATS}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
