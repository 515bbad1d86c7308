"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cli_env():
    """The environment for a child ``python -m extremebandits.cli``: this
    checkout's src first on PYTHONPATH, since pytest's pythonpath setting
    reaches only the test process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
