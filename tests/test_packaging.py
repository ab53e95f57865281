"""A non-editable install must carry every data file the package reads."""

import fnmatch
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]


def test_every_data_file_under_src_is_declared_package_data():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    undeclared = []
    for path in (ROOT / "src" / "repro").rglob("*"):
        if (not path.is_file() or path.suffix == ".py"
                or "__pycache__" in path.parts):
            continue
        package = ".".join(path.parent.relative_to(ROOT / "src").parts)
        if not any(fnmatch.fnmatch(path.name, pattern)
                   for pattern in declared.get(package, ())):
            undeclared.append(str(path.relative_to(ROOT)))
    # mg_sac.loader reads mg.sac from beside itself: undeclared, a wheel
    # has no such file and load_mg_program() raises FileNotFoundError.
    assert undeclared == []
