"""Hodge theory of invariant forms on complex Lie-algebra models.

Finite-dimensional stand-ins for compact complex manifolds: the invariant
bigraded complex of a Lie-algebra model carries exact linear-algebra
versions of the Bott-Chern and Aeppli Laplacians, their cohomologies and
duality pairing, the pluriclosed (SKT) / Gauduchon metric taxonomy, the
omega-primitive splitting of H^{n-1,n-1}_BC, and SKT-cone feasibility.
"""

from .algebra import (
    Form,
    LieModel,
    MultiIndex,
    ValidationReport,
    conjugate,
    d_form,
    del_form,
    delbar_form,
    form_from_document,
    form_to_document,
    integrate_top,
    operator_matrix,
    parse_model,
    validate_model,
    wedge,
    wedge_power,
)
from .classify import (
    MetricClassification,
    aeppli_harmonic_check,
    classify_metric,
    power_exactness_witness,
    skt_class_nonzero,
    weak_positivity_topform,
)
from .cohomology import (
    CohomologyClass,
    CohomologySpace,
    class_of,
    cohomology_space,
    duality_pairing,
    harmonic_representative,
    lambda_sign_partition,
    lefschetz_decompose_class,
    primitive_hyperplane,
)
from .cones import (
    ConeMembershipResult,
    SktProbe,
    copsef_pairing_test,
    closed_positive_probes,
    skt_cone_feasibility,
    skt_probe_from_metric,
)
from .errors import (
    CrossCheckError,
    MetricError,
    ParseError,
    PluriclosedError,
    PreconditionError,
)
from .hodge import (
    HermitianMetric,
    harmonic_space,
    hodge_star,
    identity_metric,
    laplacian_a,
    laplacian_bc,
    laplacian_delbar,
    laplacian_derham,
    lambda_contraction,
    lefschetz_L,
    metric_from_document,
    metric_from_matrix,
    primitive_star_check,
    quasi_isometry_bounds,
    random_metric,
    three_space_decomposition,
)

__version__ = "0.1.0"
