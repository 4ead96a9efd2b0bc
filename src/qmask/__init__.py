"""qmask: qubit information masking on the Bloch sphere.

Masking hides a qubit's state in two-qubit correlations so both reduced
states are identical across the whole input set.  This package builds
the explicit isometry maskers that achieve it, characterizes exactly
which state sets any linear operator can mask (spherical circles at
most), cross-validates that analysis with a brute-force grid oracle,
and runs a multi-masker secret-sharing protocol whose decoding cuts
the sphere by the share planes, the same solver that classifies.
"""

from .analysis import (
    AffineConstraint,
    Circle,
    GeneralLinearOp,
    MaskableClass,
    PointPair,
    ProductFormReport,
    SinglePoint,
    class_distance,
    constraint_planes,
    extract_constraints,
    maskable_set,
    operator_scale,
    product_form_diagnosis,
)
from .bloch import (
    AngleState,
    AngleStates,
    Empty,
    SphericalCircle,
    angles_to_bloch,
    bloch_angles,
    bloch_points,
    bloch_to_angles,
    canonical_mask_params,
    circle_from_mask_params,
    circle_through_points,
    circles_equal,
    cut_sphere,
    distance_to_circle,
    sample_circle,
)
from .errors import (
    CorruptShareError,
    EmptyCircleError,
    InvalidInputError,
    InvalidSchemeError,
    InvariantViolationError,
    MaskingError,
)
from .linalg import TOL_EQUALITY, reduced_pair
from .masking import (
    MaskerParams,
    MaskReport,
    build_masker,
    hbar,
    maskable_circle,
    masker_for_states,
    predicted_reduced,
    verify_mask,
)
from .crosscheck import agreement_report
from .oracle import (
    GridSpec,
    default_kappa,
    grid_deviations,
    grid_flags,
    grid_scan,
    masked_fraction_scaling,
)
from .protocol import (
    AmbiguousCircle,
    DecodeResult,
    Inconsistent,
    Scheme,
    Share,
    TwoCandidates,
    Unique,
    decode,
    encode,
    fig1_axes,
    fig2_vertical,
    fig3_pole,
    general,
    preset_scheme,
    preset_schemes,
    share_constraint,
)

__version__ = "0.1.0"
