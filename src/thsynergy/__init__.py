"""Signed three-way information toolkit for firm populations.

Measures how much structure the municipality, size and technology
dimensions of a firm register carry jointly beyond their pairwise views,
splits that measure by domestic versus foreign ownership, and relates the
foreign contribution to the foreign share of turnover.

Every exported name loads its submodule on first use (PEP 562), so
`import thsynergy` imports no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("ContingencyCube", "EmptyDataset", "build_cube", "cube_from_dict", "cube_to_dict",
                     "dump_cube", "load_cube", "marginalize"), "cube"),
    **dict.fromkeys(("RegionReport", "SplitEntropyTerm", "SynergyDecomposition", "decompose", "efficiency_ratio",
                     "region_report", "split_entropy", "subgroup_synergy", "synergy_share"), "decomp"),
    **dict.fromkeys(("EntropyProfile", "ZeroTotal", "cube_ternary_information", "entropy_profile",
                     "shannon_entropy", "ternary_information"), "infotheory"),
    **dict.fromkeys(("ClassificationConfig", "ClassifiedFirm", "FirmRecord", "MalformedRow", "MissingColumn",
                     "Ownership", "UnmappedNace", "classify", "classify_all", "load_config", "parse_firm_records",
                     "validate_firm_csv"), "ingest"),
    **dict.fromkeys(("ChiSquareResult", "DegenerateTable", "chi_square_homogeneity", "chi_square_survival",
                     "ownership_tech_table"), "stats"),
    **dict.fromkeys(("SweepCurve", "SweepPoint", "SynthParams", "generate", "sweep_foreign_share"), "synthlab"),
}

__all__ = ["__version__", *sorted(_HOMES)]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return __all__
