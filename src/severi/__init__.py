"""Exact-arithmetic counting of nodal plane curves.

Severi degrees via the Caporaso-Harris recursion, node polynomials and
their thresholds, the Bell/log structure of the counts, and numeric
extraction of the two unknown series of the Gottsche-Yau-Zaslow
product formula.  Everything is exact: integers are unbounded and
coefficients are rationals; no floating point anywhere.

The top level holds the pipeline's entry points and the exceptions
they raise; everything else is importable from its submodule.
"""

from .engine import (
    CacheCorruption,
    CacheStore,
    ParseError,
    VersionMismatch,
    relative_severi,
    severi_degree,
    severi_table,
)
from .forms import form_catalog, sigma1
from .gyz import (
    DegreeTooSmall,
    InconsistentSystem,
    InvalidInvariants,
    Invariants,
    NonIntegralPrediction,
    extract_b_series,
    gyz_predict,
    plane_invariants,
)
from .nodepoly import (
    DegreeCheckFailed,
    bell_polynomial,
    fit_node_polynomial,
    log_forms,
    reconstruct_from_log_forms,
    threshold,
    threshold_report,
)
from .series import RatSeries, SeriesError
from .tangency import InvalidState

__version__ = "0.1.0"

__all__ = [
    "CacheCorruption",
    "CacheStore",
    "DegreeCheckFailed",
    "DegreeTooSmall",
    "InconsistentSystem",
    "InvalidInvariants",
    "InvalidState",
    "Invariants",
    "NonIntegralPrediction",
    "ParseError",
    "RatSeries",
    "SeriesError",
    "VersionMismatch",
    "bell_polynomial",
    "extract_b_series",
    "fit_node_polynomial",
    "form_catalog",
    "gyz_predict",
    "log_forms",
    "plane_invariants",
    "reconstruct_from_log_forms",
    "relative_severi",
    "severi_degree",
    "severi_table",
    "sigma1",
    "threshold",
    "threshold_report",
]
