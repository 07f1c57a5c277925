"""Bundled desk-scale fixture algebras and job files.

The directory can be overridden with the MONOGENICA_FIXTURES environment
variable, which lets the CLI resolve bare algebra names in job files.
"""

from __future__ import annotations

import os
from importlib.resources import files
from pathlib import Path

from .algebra import AlgebraSpec, load_algebra


def fixture_dir() -> Path:
    env = os.environ.get("MONOGENICA_FIXTURES")
    if env:
        return Path(env)
    return Path(str(files("monogenica") / "fixtures"))


def fixture_path(name: str) -> Path:
    if not name.endswith(".json"):
        name += ".json"
    return fixture_dir() / name


def load_fixture_algebra(name: str) -> AlgebraSpec:
    return load_algebra(fixture_path(name))
