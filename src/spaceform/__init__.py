"""Moving-frame surface geometry in 4-dimensional space forms.

Compatibility (Gauss/Codazzi/Ricci) residuals, twistor-lift invariants,
frame-field integration, inverse constructions from invariant fields and
holomorphic data, and the Lorentz-to-complex-rotation group check.
"""

from .cases import SurfaceCase, case_from_name
from .errors import (
    ConfigError,
    DegenerateDelta,
    DegenerateFrame,
    DimensionMismatch,
    DomainViolation,
    FrameNormalizationError,
    HypothesisViolated,
    IncompatiblePair,
    InvalidCase,
    InvalidInitialFrame,
    LiouvilleViolated,
    NonFiniteState,
    NonLorentz,
    SignMismatch,
    SpaceformError,
    TotallyGeodesicRegion,
)
from .fundamental import (
    FundamentalData,
    SpaceFormModel,
    ambient_model,
    validate_frame,
)
from .grids import Grid
from .integrability import GCRResiduals, equivalence_check, gcr_residuals, lax_residual
from .liegroup import GeneratorSpec, displayed_q, induced_action, lorentz_generator, phi_check
from .reconstruct import (
    DelbarInput,
    FrameField,
    HolomorphicSpec,
    construct_delbar,
    construct_from_wxyz_curved,
    construct_from_wxyz_flat,
    extract_fundamental,
    integrate_frame,
    liouville_profile,
    mean_curvature_and_isotropy,
)
from .twistor import (
    DegeneracyReport,
    InvariantFamily,
    TwistorInvariants,
    ab_functions,
    curvature_residual,
    degeneracy_report,
    delbar_residual,
    hat_connection_matrices,
    linear_dependence_check,
    so3c_connection_form,
    twistor_invariants,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
