import importlib

import pytest

import moea_lab

MODULES = [
    "analysis",
    "cli",
    "dominance",
    "engine",
    "genome",
    "normalization",
    "problems",
    "refpoints",
    "selection",
]


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_all_names_resolve(name):
    module = moea_lab if name == "__init__" else importlib.import_module(f"moea_lab.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_names_are_exported_by_their_module():
    missing = []
    for name in moea_lab.__all__:
        owner = getattr(moea_lab, name).__module__
        if name not in importlib.import_module(owner).__all__:
            missing.append((name, owner))
    assert missing == []
