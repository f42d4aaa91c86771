"""eisbasis: exact Eisenstein-product bases for level-one modular forms.

Everything is computed over arbitrary-precision rationals; no floating
point appears anywhere in the library or its output.  The public names are
those in ``__all__``; the serialization helpers and the command line live
in ``eisbasis.cli``.
"""

from .arith import dimension_data
from .basis import (
    Basis,
    BasisElement,
    RatMatrix,
    SpanError,
    basis_for,
    classical_basis,
    cusp_basis,
    cusp_correction,
    default_precision,
    express,
    new_basis,
    verify_basis,
    verify_report,
)
from .eisenstein import eisenstein, eisenstein_product
from .qseries import QSeries

__all__ = [
    "QSeries",
    "eisenstein",
    "eisenstein_product",
    "dimension_data",
    "Basis",
    "BasisElement",
    "RatMatrix",
    "SpanError",
    "basis_for",
    "new_basis",
    "cusp_basis",
    "classical_basis",
    "cusp_correction",
    "default_precision",
    "express",
    "verify_basis",
    "verify_report",
]
