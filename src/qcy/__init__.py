"""Exact certification of Calabi-Yau conditions for quantum weighted rings.

The package works over cyclotomic integers throughout: parameters are
roots of unity given by an exponent matrix, certificates come with
explicit witnesses, and `qcy certify` re-verifies each before printing
it.  PI degrees are recounted by a coset closure wherever it is feasible, and
centers are proved by their index: the central lattice's basis rows are
central by the reorder exponents, and the product of its pivots equals
the size of the exponent matrix's image mod N.  The Hilbert series have
no second route per request: the brute-force oracle checks them only in
the tests, the acceptance run and the benchmark.
"""

from .cyclo import (
    CycInt,
    RootScalar,
    hermite_normal_form,
    image_size,
    kernel_lattice,
    lattice_contains,
    smith_normal_form,
    solve_root_system,
)
from .cycert import (
    Certificate,
    Verdict,
    certify_mixed,
    certify_segre,
    certify_weighted,
    verify_certificate,
)
from .errors import (
    HypothesisViolation,
    InternalDefect,
    ManifestError,
    OrderMismatchError,
)
from .hilbert import (
    HilbertSeries,
    brute_force_dims,
    quotient_by_regular,
    segre_coefficients,
    series_qpoly,
)
from .manifest import Manifest, ManifestAlgebra, load, loads
from .points import (
    INFINITE,
    CensusReport,
    census_weighted_surface,
    is_special,
    admissible_supports,
    max_stratum_dimension,
    pi_degree,
    point_scheme_dim_product,
    two_var_fermat_count,
)
from .qalgebra import (
    AlgebraSpec,
    SkewPoly,
    center_lattice,
    chart_parameters,
    fermat,
    is_central,
    multiply,
    reorder_scalar,
    validate_spec,
)
from .search import (
    REFERENCE_SURFACE_WEIGHTS,
    enumerate_cy_weights,
    search_q_params,
    sweep_census,
    weight_system,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "CensusReport",
    "Certificate",
    "CycInt",
    "HilbertSeries",
    "HypothesisViolation",
    "INFINITE",
    "InternalDefect",
    "Manifest",
    "ManifestAlgebra",
    "ManifestError",
    "OrderMismatchError",
    "REFERENCE_SURFACE_WEIGHTS",
    "RootScalar",
    "SkewPoly",
    "Verdict",
    "admissible_supports",
    "brute_force_dims",
    "census_weighted_surface",
    "center_lattice",
    "certify_mixed",
    "certify_segre",
    "certify_weighted",
    "chart_parameters",
    "enumerate_cy_weights",
    "fermat",
    "hermite_normal_form",
    "image_size",
    "is_central",
    "is_special",
    "kernel_lattice",
    "lattice_contains",
    "load",
    "loads",
    "max_stratum_dimension",
    "multiply",
    "pi_degree",
    "point_scheme_dim_product",
    "quotient_by_regular",
    "reorder_scalar",
    "search_q_params",
    "segre_coefficients",
    "series_qpoly",
    "smith_normal_form",
    "solve_root_system",
    "sweep_census",
    "two_var_fermat_count",
    "validate_spec",
    "weight_system",
]
