"""Exact-arithmetic counting of nodal plane curves.

Severi degrees via the Caporaso-Harris recursion, node polynomials and
their thresholds, the Bell/log structure of the counts, and numeric
extraction of the two unknown series of the Gottsche-Yau-Zaslow
product formula.  Everything is exact: integers are unbounded and
coefficients are rationals; no floating point anywhere.

The top level holds the pipeline's entry points and the exceptions
they raise; everything else is importable from its submodule.  Importing
the package loads no submodule: a name loads its submodule on first use
(PEP 562), so a CLI call imports only what its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "engine": (
        "CacheCorruption", "CacheStore", "DegreeCheckFailed", "ParseError",
        "VersionMismatch", "relative_severi", "severi_degree", "severi_table", "sigma1",
    ),
    "forms": ("form_catalog",),
    "gyz": (
        "DegreeTooSmall", "Invariants", "NonIntegralPrediction",
        "extract_b_series", "gyz_predict", "plane_invariants",
    ),
    "nodepoly": (
        "bell_polynomial", "fit_node_polynomial", "log_forms",
        "reconstruct_from_log_forms", "threshold", "threshold_report",
    ),
    "series": ("RatSeries", "SeriesError"),
    "tangency": ("InvalidState",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__package__}.{_OWNER[name]}"), name)
    elif name in _EXPORTS or name == "cli":
        value = importlib.import_module(f"{__package__}.{name}")
    else:
        raise AttributeError(f"module {__package__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
