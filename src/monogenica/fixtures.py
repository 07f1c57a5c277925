"""Bundled desk-scale fixture algebras and job files.

The CLI resolves bare algebra names in job files against this directory.
"""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path


def fixture_path(name: str) -> Path:
    if not name.endswith(".json"):
        name += ".json"
    return Path(str(files("monogenica") / "fixtures")) / name
