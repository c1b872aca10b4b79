"""geolyap: converse Lyapunov constructions on Riemannian manifolds.

A numerical library and CLI that builds flow-integral Lyapunov certificates
for exponentially and asymptotically stable systems on a family of analytic
manifolds (Euclidean space, spheres, SO(3), the hyperbolic plane), and
verifies every inequality the certificates carry with independent numerical
checks.
"""

from .certify import (
    Certificate,
    CertificationReport,
    CheckRow,
    GridSpec,
    ISSReport,
    StabilityEnvelope,
    classify_stability,
    draw_verification_inputs,
    input_lipschitz_estimate,
    iss_certify,
    make_certificate,
    run_geometry_suite,
    verify_converse_certificate,
)
from .flows import (
    DenseFlow,
    LipschitzEstimate,
    Region,
    TimeVaryingField,
    Trajectory,
    contraction_offsets,
    flow,
    flow_samples,
    lipschitz_estimate,
)
from .lyapunov import (
    LyapunovFunction,
    MasseraFunction,
    TheoreticalBounds,
    choose_delta,
    construct_exp_V,
    construct_ugas_V,
    massera_G,
    theoretical_bounds,
)
from .manifolds import (
    CutLocusError,
    Euclidean,
    GeometryError,
    Hyperbolic2,
    Manifold,
    ManifoldMismatchError,
    ManifoldPoint,
    Sphere,
    SpecialOrthogonal3,
    manifold_from_name,
)
from .systems import SystemSpec, attach_disturbance, available_systems, make_system

__version__ = "0.1.0"
