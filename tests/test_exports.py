"""Every module's star import and every top-level export resolve, so a
removed function cannot stay behind in an ``__all__``."""

import pytest

import dafsc

MODULES = ["analysis", "cli", "fading", "harness", "phy", "specfn", "validate"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from dafsc.{name} import *", {})


def test_top_level_names_resolve():
    namespace = {}
    exec("from dafsc import *", namespace)
    assert set(dafsc.__all__) <= namespace.keys()
