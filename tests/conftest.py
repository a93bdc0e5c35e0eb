import functools
import sys
import time
from pathlib import Path

import pytest
from hypothesis import settings

# the tests' own helpers, and the same-numbers harness, which owns the shared test inputs
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent / "scripts"))

from fraczee import FitConfig, builtin_table, cli, fit, select_records

# no per-example deadline: a shared host's speed drifts by about 20%, so a
# timing bound would fail at random; a failure prints its reproduction blob
settings.register_profile("fraczee", deadline=None, print_blob=True)
settings.load_profile("fraczee")


@pytest.fixture(scope="session")
def default_fit():
    """The standard baryon-band fit, run once for the whole session."""
    cfg = FitConfig()
    selected = select_records(builtin_table(), cfg)
    t0 = time.perf_counter()
    result = fit(selected, cfg)
    elapsed = time.perf_counter() - t0
    return cfg, selected, result, elapsed


@pytest.fixture
def fresh_parser(monkeypatch):
    """Give ``cli.main`` an empty parser cache for one test: its next call
    builds a new parser through ``cli._build_parser`` (as that name stands
    then), and later calls reuse it.  The process's cache is back afterwards."""
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
