"""Shared fixtures: the built-in configurations."""

import pytest

from bksgeom.rectangle import magic_rectangle, twin_rectangle


@pytest.fixture()
def rect():
    return magic_rectangle()


@pytest.fixture()
def twin():
    return twin_rectangle()
