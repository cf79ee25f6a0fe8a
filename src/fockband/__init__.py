"""Positivity certificates for band operators built from truncated isometries.

The package realizes n isometries with orthogonal ranges on a truncated
word space, forms the band operator of a matrix tuple against them, and
decides contraction properties of the tuple through eigenvalue margins,
exact joint numerical radii (one band eigenvalue each, by rotation
invariance), shorted-operator completions, arrowhead certificates,
isometric dilation, and radius-preserving lifts.
"""

from .errors import CapacityError, ConvergenceError, DomainError, FockbandError, InputError
from .fock import (CuntzIsometries, MatrixTuple, TruncatedFock, band_operator,
                   band_operator_sparse, compress, coupling_operator_sparse,
                   cuntz_isometries, fock_dim, make_fock)
from .linalg import PsdReport, hermitize, kron, lam_max, lam_min, op_norm, pinv, psd_margin
from .radius import (CERTIFIED_NO, CERTIFIED_YES, UNDECIDED, ContractionVerdict,
                     RadiusEstimate, is_dual_row_contraction, is_row_contraction,
                     joint_numerical_radius, numerical_radius)
from .shorted import (AndoCertificate, BlockSplit, ShortResult, VariationalReport,
                      ando_complete, arrowhead_matrix, block_split, short, variational_check)
from .ensys import (DualElement, DualMap, DualVerdict, EnDecomposition, EnElement,
                    PhiImage, dual_cp_check, dual_element, dual_map, dual_positive,
                    en_decompose, en_element, image_operator, kernel_membership,
                    pattern_matrix, phi_apply, theta_embed)
from .dilation import (DilationReport, DilationResult, LiftResult, QuotientAlgebra,
                       bunce_dilate, lift_tuple, project_tuple, quotient_algebra,
                       verify_dilation)

__version__ = "0.1.0"

__all__ = [
    "FockbandError", "InputError", "CapacityError", "DomainError", "ConvergenceError",
    "PsdReport", "hermitize", "psd_margin", "kron", "pinv",
    "op_norm", "lam_max", "lam_min",
    "TruncatedFock", "CuntzIsometries", "fock_dim", "make_fock", "cuntz_isometries",
    "band_operator", "band_operator_sparse", "coupling_operator_sparse", "compress",
    "MatrixTuple", "RadiusEstimate", "ContractionVerdict",
    "CERTIFIED_YES", "CERTIFIED_NO", "UNDECIDED", "numerical_radius",
    "joint_numerical_radius", "is_row_contraction", "is_dual_row_contraction",
    "BlockSplit", "ShortResult", "VariationalReport", "AndoCertificate",
    "block_split", "short", "variational_check", "arrowhead_matrix", "ando_complete",
    "EnElement", "PhiImage", "EnDecomposition", "DualElement", "DualVerdict",
    "DualMap", "en_element", "phi_apply", "image_operator", "kernel_membership",
    "pattern_matrix", "en_decompose", "dual_element", "dual_positive", "theta_embed",
    "dual_map", "dual_cp_check",
    "DilationResult", "DilationReport", "QuotientAlgebra", "LiftResult",
    "bunce_dilate", "verify_dilation", "quotient_algebra", "lift_tuple",
    "project_tuple",
]
