"""The package's lazy exports: each name loads its submodule on first use.

That `import thsynergy` itself loads no submodule, and that an exported name
loads its home module alone, is pinned, in a fresh interpreter, by
tests/test_cli.py::test_each_command_loads_only_the_modules_it_runs.
"""
import importlib
import sys

import pytest

import thsynergy


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from thsynergy import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(thsynergy.__all__)


@pytest.mark.parametrize("name", thsynergy.__all__[1:])
def test_export_is_the_object_of_its_home_module(name):
    obj = getattr(thsynergy, name)
    assert obj.__module__.startswith("thsynergy.")
    assert getattr(sys.modules[obj.__module__], name) is obj
    assert vars(thsynergy)[name] is obj  # cached, so the next access skips __getattr__


def test_dir_lists_all():
    assert dir(thsynergy) == sorted(thsynergy.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'thsynergy' has no attribute 'no_such_name'"):
        thsynergy.no_such_name
    assert not hasattr(thsynergy, "marginalise")
    assert not hasattr(thsynergy, "load_config")  # the classification settings are flags only
    # the record-object route and the profile adapters: rows reach a report through validate_firm_csv,
    # Tally and cube_report only, and a cube's entropies come from decompose
    for gone in ("parse_firm_records", "FirmRecord", "classify", "classify_all", "ClassifiedFirm", "Ownership",
                 "build_cube", "region_report", "entropy_profile", "cube_ternary_information",
                 "synergy_share", "efficiency_ratio"):  # RegionReport's properties compute both ratios
        assert not hasattr(thsynergy, gone) and gone not in thsynergy.__all__
    decomp = importlib.import_module("thsynergy.decomp")
    assert not hasattr(decomp, "synergy_share") and not hasattr(decomp, "efficiency_ratio")
    assert not hasattr(thsynergy.Tally, "add_firms")


@pytest.mark.parametrize("module", ["thsynergy.cube", "thsynergy.infotheory"])
def test_folded_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
