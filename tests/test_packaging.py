"""Packaging: an installed package carries every data file the source tree
has. The tests import from ``src/``, where a data file loads whether or not
``[tool.setuptools.package-data]`` ships it."""

from __future__ import annotations

import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "fluxseek" / "data"


def test_package_data_ships_every_data_file():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["fluxseek.data"]
    shipped = {path for glob in globs for path in DATA.glob(glob)}
    files = {
        path for path in DATA.rglob("*")
        if path.is_file() and path.name != "__init__.py" and "__pycache__" not in path.parts
    }
    assert files  # the packaged default config at least
    assert files <= shipped, sorted(p.relative_to(DATA).as_posix() for p in files - shipped)
