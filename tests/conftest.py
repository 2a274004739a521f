"""Shared fixtures: the built-in configurations and a child environment."""

import os
from pathlib import Path

import pytest

import bksgeom
from bksgeom.rectangle import magic_rectangle, twin_rectangle


@pytest.fixture()
def rect():
    return magic_rectangle()


@pytest.fixture()
def twin():
    return twin_rectangle()


@pytest.fixture()
def child_env():
    """The environment of a child interpreter that must import the
    bksgeom under test: PYTHONPATH starts with the directory that holds
    the package, so a bare checkout runs without an install."""
    root = str(Path(bksgeom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}
