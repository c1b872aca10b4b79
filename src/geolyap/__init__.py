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
    classify_stability,
    input_lipschitz_estimate,
    iss_certify,
    make_certificate,
    run_geometry_suite,
    verify_converse_certificate,
)
from .envelopes import KLEnvelope, StabilityEnvelope
from .flows import (
    LipschitzEstimate,
    Region,
    TimeVaryingField,
    Trajectory,
    contraction_envelope_check,
    flow,
    flow_samples,
    lipschitz_estimate,
    pushforward,
)
from .lyapunov import (
    DeltaChoice,
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
    TangentVector,
    first_variation_terms,
    manifold_from_name,
)
from .systems import SystemSpec, attach_disturbance, available_systems, make_system

__version__ = "0.1.0"
