"""Fixtures shared across test modules."""

from __future__ import annotations

import pytest

from cyberprov.config import emit_experiment_defaults
from cyberprov.sweep import SweepContext


@pytest.fixture(scope="session")
def reference_context():
    """The reference config's loss model (2^20-atom grid), built once per run."""
    return SweepContext(emit_experiment_defaults())
