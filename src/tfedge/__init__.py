"""Edge transport for the fractional-order magnetic half-plane.

The package evaluates the two-parameter Mittag-Leffler function, solves the
shifted-oscillator transverse eigenproblem on the half line, and combines
them into the edge current, mean-square displacement, and norm-bound
certification of a band-localised wavepacket evolved under time-fractional
dynamics of order pair (alpha, beta).
"""

from .edge_current import (
    FractionalOrder,
    QuadratureRule,
    SpectralTable,
    TransportTrace,
    FitResult,
    build_spectral_table,
    classify_regime,
    current_asymptotic_case1,
    current_asymptotic_case2,
    current_ayh,
    current_beta_line,
    current_direct,
    current_naber,
    current_schrodinger,
    current_trace,
    decay_exponent,
    fit_exponent,
    gauss_legendre_rule,
    log_current_case1,
    map_over_times,
)
from .errors import (
    ConfigError,
    DomainError,
    GridError,
    NonConvergence,
    OverflowGuard,
    QuadratureError,
    SignChange,
    TfedgeError,
    WindowViolation,
)
from .fiber_spectrum import (
    FiberOperator,
    GroundState,
    HalfLineGrid,
    ModelParams,
    auto_length,
    build_fiber_operator,
    dk_phi1,
    dlambda1,
    make_grid,
    solve_ground_state,
)
from .mittag_leffler import (
    DEFAULT_ACCURACY,
    MLAccuracy,
    MLParams,
    gamma_reciprocal,
    ml_deriv,
    ml_eval,
    ml_pair,
    sector_half_angle,
)
from .msd import (
    MSDBreakdown,
    msd_assembled,
    msd_case2_leading,
    msd_direct,
    msd_naber_leading,
    msd_trace,
    packet_norm_sq,
)
from .wavepacket import ChiProfile, SupportReport, chi, chi_deriv, validate_support
from .wellposed import (
    CertifiedBound,
    ModeSpectrum,
    caputo_residual,
    certify_bounds,
    envelope,
    solution_norm_sq,
)

__version__ = "0.1.0"
