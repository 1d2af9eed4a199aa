import sys
from pathlib import Path

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(Path(__file__).parent / "src"))

try:
    from hypothesis import settings
except ImportError:  # only the property-test modules need it; they fail alone
    pass
else:
    # Property tests draw the same examples on every run, so a defect they
    # can reach fails every run rather than some; with no example database,
    # one run's failures are not replayed into the next either.
    settings.register_profile("repeatable", derandomize=True, database=None)
    settings.load_profile("repeatable")
