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

# The classification defaults and the checked-record base sit in the package root, which every command
# loads, so that the CLI's --size-bins help and synthlab's SynthParams use them without loading ingest.
DEFAULT_SIZE_BIN_EDGES = (0, 1, 5, 10, 20, 50, 100, 250)
DEFAULT_FOREIGN_CUTOFF = 0.20


class _Validated:
    """First base of a NamedTuple subclass whose _validated() raises ValueError or returns the
    instance to keep; __new__ and _make, which namedtuple's _replace builds through, both run it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._validated()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def _check_numbers(self, *names):  # ValueError naming a field that, like "0.5" or None, no float compares with
        for name in names:
            try:
                getattr(self, name) < 0.0
            except TypeError:
                raise ValueError(f"{name} must be a number") from None


# each exported name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("ContingencyCube", "EmptyDataset", "EntropyProfile", "RegionReport", "SplitEntropyTerm",
                     "SynergyDecomposition", "Tally", "ZeroTotal", "cube_report", "decompose", "marginalize",
                     "ownership_tech_table", "shannon_entropy", "split_entropy", "subgroup_synergy",
                     "ternary_information"), "decomp"),
    **dict.fromkeys(("ClassificationConfig", "MalformedRow", "MissingColumn", "UnmappedNace", "validate_firm_csv"),
                    "ingest"),
    **dict.fromkeys(("ChiSquareResult", "DegenerateTable", "chi_square_homogeneity", "chi_square_survival"), "stats"),
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
