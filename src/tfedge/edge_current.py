"""Edge current of a band-localised wavepacket under fractional dynamics.

The state is prepared as chi(k) phi_1(x; k) on the first transverse band and
evolved by the half-plane dynamics of order pair (alpha, beta).  The current
carried along the edge reduces to a one-dimensional momentum integral

    J(t) = 2 t^(alpha-1) Int lambda_1 chi chi' Re{ (-i)^(1+beta)
              E_{a,a}(z) conj(E_{a,1}(z)) } dk,     z = (-i)^beta t^alpha lambda_1(k),

together with closed-form large-time models for the three order regimes:
exponential growth when beta < alpha, a constant plateau with oscillatory
t^(-alpha) correction when beta = alpha, and power-law decay when
beta > alpha.  The generic decay exponent is -(1+3 alpha); its coefficient
vanishes identically at alpha = 1/2, where the current decays as
t^(-(1+4 alpha)) = t^-3 for beta < 1 and is exponentially small at beta = 1.

Everything spectral (lambda_1, lambda_1', and the momentum-gradient norm of
phi_1) is computed once per quadrature node and reused across all times; see
SpectralTable.  Quadrature sums are correctly rounded (math.fsum), so they do
not depend on summation order and runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, OverflowGuard, QuadratureError, SignChange
from .fiber_spectrum import HalfLineGrid, ModelParams, dk_phi1, solve_ground_state
from .mittag_leffler import (
    DEFAULT_ACCURACY,
    MLAccuracy,
    gamma_reciprocal,
    ml_eval,  # noqa: F401  perfbench's traced run rebinds edge_current.ml_eval
    ml_pair,
    neg_i_power,
)
from .wavepacket import ChiProfile, chi, chi_deriv

__all__ = [
    "FractionalOrder",
    "QuadratureRule",
    "gauss_legendre_rule",
    "SpectralTable",
    "build_spectral_table",
    "TransportTrace",
    "FitResult",
    "METHODS",
    "neg_i_power",
    "classify_regime",
    "decay_exponent",
    "current_direct",
    "current_schrodinger",
    "current_beta_line",
    "current_asymptotic_case1",
    "current_asymptotic_case2",
    "current_naber",
    "current_ayh",
    "log_current_case1",
    "current_trace",
    "fit_exponent",
    "map_over_times",
]

log = logging.getLogger(__name__)

METHODS = (
    "Direct",
    "AsymptoticCase1",
    "AsymptoticCase2",
    "Naber",
    "AYH",
    "Schrodinger",
    "BetaLine",
)

# largest exponent handed to exp() in closed-form models before switching
# callers to the log-value pathway
_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class FractionalOrder:
    """Order pair (alpha, beta), both in (0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not (0.0 < v <= 1.0):
                raise DomainError(
                    f"FractionalOrder.{name} must lie in (0, 1], got {v!r}"
                )

    @property
    def theta(self) -> float:
        """Rotation angle pi*beta/(2*alpha) of the dominant exponent."""
        return math.pi * self.beta / (2.0 * self.alpha)


def classify_regime(order: FractionalOrder) -> str:
    """Long-time behaviour implied by the order pair."""
    if order.beta < order.alpha:
        return "ExponentialGrowth"
    if order.beta == order.alpha:
        return "AsymptoticallyConstant"
    return "PowerLawDecay"


def decay_exponent(order: FractionalOrder) -> Optional[float]:
    """Generic power-law exponent -(1+3 alpha) in the decay regime, else None.

    At alpha = 1/2 the coefficient of this order is zero (see
    current_asymptotic_case2); the current there decays as t^(-(1+4 alpha))
    for beta < 1 and is exponentially small at beta = 1.  The generic value
    is still returned for every alpha.
    """
    if order.beta > order.alpha:
        return -(1.0 + 3.0 * order.alpha)
    return None


# ---------------------------------------------------------------------------
# quadrature and the per-node spectral table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [a, b]; weights must resum to the interval."""

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise DomainError("QuadratureRule nodes/weights must be matching 1-d arrays")
        if self.n_nodes < 32:
            raise DomainError(
                f"QuadratureRule needs at least 32 nodes, got {self.n_nodes}"
            )
        width = self.b - self.a
        if not width > 0.0:
            raise DomainError("QuadratureRule needs a < b")
        if abs(float(np.sum(self.weights)) - width) > 1e-12 * width:
            raise DomainError("QuadratureRule weights do not resum to the interval")

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])


def gauss_legendre_rule(a: float, b: float, n: int = 64) -> QuadratureRule:
    """Gauss-Legendre rule mapped from [-1, 1] to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    half = 0.5 * (b - a)
    return QuadratureRule(a=a, b=b, nodes=a + half * (x + 1.0), weights=half * w)


@dataclass(frozen=True)
class SpectralTable:
    """Band data sampled at the quadrature nodes of a momentum window.

    lam, dlam hold lambda_1 and its k-derivative; cap holds the squared norm
    of the projected dk phi_1 (None unless requested; it costs one banded
    solve per node on top of the eigensolve).  chi_vals/dchi_vals are the
    profile and its derivative at the nodes.  All downstream integrands are
    plain array expressions over these.
    """

    model: ModelParams
    profile: ChiProfile
    rule: QuadratureRule
    lam: np.ndarray
    dlam: np.ndarray
    cap: Optional[np.ndarray]
    chi_vals: np.ndarray
    dchi_vals: np.ndarray


def build_spectral_table(
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    with_cap: bool = False,
) -> SpectralTable:
    """Solve the fiber problem at every node, in node order."""
    lam = np.empty(rule.n_nodes)
    dlam = np.empty(rule.n_nodes)
    cap = np.empty(rule.n_nodes) if with_cap else None
    for i, k in enumerate(rule.nodes):
        if with_cap:
            state, _, cap_i = dk_phi1(model, float(k), grid)
            cap[i] = cap_i
        else:
            state = solve_ground_state(model, float(k), grid)
        lam[i] = state.lambda1
        dlam[i] = state.dlambda1
    log.debug(
        "spectral table: %d nodes on [%g, %g], lambda range [%.6f, %.6f]",
        rule.n_nodes, rule.a, rule.b, lam.min(), lam.max(),
    )
    return SpectralTable(
        model=model,
        profile=profile,
        rule=rule,
        lam=lam,
        dlam=dlam,
        cap=cap,
        chi_vals=chi(profile, rule.nodes),
        dchi_vals=chi_deriv(profile, rule.nodes),
    )


def _table(model, profile, grid, rule, table, with_cap=False):
    if table is not None:
        if with_cap and table.cap is None:
            raise DomainError("supplied SpectralTable lacks the dk-phi norm data")
        return table
    return build_spectral_table(model, profile, grid, rule, with_cap=with_cap)


def _fsum_dot(weights: np.ndarray, values: np.ndarray) -> float:
    """Correctly rounded sum of weights * values, independent of order."""
    return math.fsum(weights * values)


# ---------------------------------------------------------------------------
# current evaluations
# ---------------------------------------------------------------------------


def current_direct(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
    acc: MLAccuracy = DEFAULT_ACCURACY,
    check_quadrature: bool = False,
) -> float:
    """Edge current at time t from the exact evolution kernel.

    With check_quadrature=True the integral is recomputed on a doubled node
    set and QuadratureError is raised if the relative change exceeds 1e-4.
    """
    if not t > 0.0:
        raise DomainError(f"current_direct requires t > 0, got {t!r}")
    tab = _table(model, profile, grid, rule, table)
    value = _current_direct_on_table(order, tab, t, acc)
    if check_quadrature:
        fine_rule = gauss_legendre_rule(rule.a, rule.b, 2 * rule.n_nodes)
        fine = build_spectral_table(model, profile, grid, fine_rule)
        refined = _current_direct_on_table(order, fine, t, acc)
        scale = max(abs(refined), abs(value))
        if scale > 0.0 and abs(refined - value) > 1e-4 * scale:
            raise QuadratureError(
                f"doubling nodes moved J(t={t}) from {value:.6e} to {refined:.6e}"
            )
    return value


def _current_direct_on_table(order, tab, t, acc):
    a, bta = order.alpha, order.beta
    eaa, ea1 = ml_pair(a, neg_i_power(bta) * t**a * tab.lam, acc)
    vals = tab.lam * tab.chi_vals * tab.dchi_vals * (
        neg_i_power(1.0 + bta) * eaa * np.conj(ea1)
    ).real
    return 2.0 * t ** (a - 1.0) * _fsum_dot(tab.rule.weights, vals)


def current_schrodinger(
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    table: Optional[SpectralTable] = None,
) -> float:
    """Time-independent current of the unit-order dynamics: Int lambda' chi^2 dk."""
    tab = _table(model, profile, grid, rule, table)
    return _fsum_dot(tab.rule.weights, tab.dlam * tab.chi_vals**2)


def current_beta_line(
    beta: float,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
) -> float:
    """Closed form on the alpha = 1 line:

        J(t) = 2 cos(pi (1+beta)/2) Int lambda chi' chi exp(2 t lambda cos(pi beta/2)) dk.

    Reduces to the constant current at beta = 1.  Raises OverflowGuard once
    the largest exponent passes 700.
    """
    if not (0.0 < beta <= 1.0):
        raise DomainError(f"beta must lie in (0, 1], got {beta!r}")
    if not t > 0.0:
        raise DomainError(f"current_beta_line requires t > 0, got {t!r}")
    tab = _table(model, profile, grid, rule, table)
    growth = 2.0 * t * tab.lam * math.cos(0.5 * math.pi * beta)
    gmax = float(np.max(growth))
    if gmax > _EXP_LIMIT:
        raise OverflowGuard(
            f"beta-line exponent {gmax:.1f} exceeds {_EXP_LIMIT}; "
            f"use the log-value pathway"
        )
    vals = tab.lam * tab.dchi_vals * tab.chi_vals * np.exp(growth)
    return 2.0 * math.cos(0.5 * math.pi * (1.0 + beta)) * _fsum_dot(
        tab.rule.weights, vals
    )


def current_asymptotic_case1(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
) -> float:
    """Large-time model for beta <= alpha (growing or plateau regime):

        J(t) ~ (2/alpha^2) cos(theta (1-alpha) + pi (1+beta)/2)
                   Int lambda^(1/alpha) chi chi' exp(2 t lambda^(1/alpha) cos theta) dk
             - (2 t^-alpha / (alpha Gamma(1-alpha)))
                   Int cos(t gamma + theta + pi (1+beta)/2)
                       lambda^((1-alpha)/alpha) chi chi'
                       exp(t lambda^(1/alpha) cos theta) dk

    with gamma(k) = lambda^(1/alpha) sin theta.
    """
    a, bta = order.alpha, order.beta
    if bta > a:
        raise DomainError(
            f"case-1 model requires beta <= alpha, got alpha={a}, beta={bta}"
        )
    if not t > 0.0:
        raise DomainError(f"current_asymptotic_case1 requires t > 0, got {t!r}")
    tab = _table(model, profile, grid, rule, table)
    theta = order.theta
    p1 = 0.5 * math.pi * (1.0 + bta)
    lam_pow = tab.lam ** (1.0 / a)
    growth = 2.0 * t * lam_pow * math.cos(theta)
    if float(np.max(growth)) > _EXP_LIMIT:
        raise OverflowGuard(
            f"case-1 exponent {float(np.max(growth)):.1f} exceeds {_EXP_LIMIT} "
            f"at t={t}; use log_current_case1"
        )
    cross = tab.chi_vals * tab.dchi_vals
    lead = (
        (2.0 / a**2)
        * math.cos(theta * (1.0 - a) + p1)
        * _fsum_dot(tab.rule.weights, lam_pow * cross * np.exp(growth))
    )
    gam = lam_pow * math.sin(theta)
    corr_vals = (
        np.cos(t * gam + theta + p1)
        * tab.lam ** ((1.0 - a) / a)
        * cross
        * np.exp(0.5 * growth)
    )
    corr = (
        2.0
        * t ** (-a)
        * gamma_reciprocal(1.0 - a)
        / a
        * _fsum_dot(tab.rule.weights, corr_vals)
    )
    return lead - corr


def current_asymptotic_case2(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
) -> float:
    """Leading large-time decay for alpha < beta:

        J(t) ~ (2 / t^(1+3 alpha)) cos(pi (1+beta)/2)
               [ 1/(Gamma(1-2a) Gamma(-a)) - 1/(Gamma(1-a) Gamma(-2a)) ]
               Int lambda^-3 chi chi' dk.

    This is the generic order.  The reciprocal-gamma bracket vanishes
    identically at alpha = 1/2 (1/Gamma(0) = 1/Gamma(-1) = 0), so the model
    returns zero there for every beta.  The next order of the same large-|z|
    expansion then leads:

        J(t) ~ t^-(1+4 alpha) (sin(pi beta) / pi) Int lambda^-4 chi chi' dk,

    which is t^-3 for beta < 1.  At beta = 1 every algebraic order vanishes
    and the exact current, -(2/sqrt(pi)) t^-1/2 Int lambda chi chi'
    exp(-t lambda^2) dk, is exponentially small.
    """
    a, bta = order.alpha, order.beta
    if not a < bta:
        raise DomainError(
            f"case-2 model requires alpha < beta, got alpha={a}, beta={bta}"
        )
    if not t > 0.0:
        raise DomainError(f"current_asymptotic_case2 requires t > 0, got {t!r}")
    tab = _table(model, profile, grid, rule, table)
    bracket = gamma_reciprocal(1.0 - 2.0 * a) * gamma_reciprocal(-a) - gamma_reciprocal(
        1.0 - a
    ) * gamma_reciprocal(-2.0 * a)
    i3 = _fsum_dot(tab.rule.weights, tab.lam**-3 * tab.chi_vals * tab.dchi_vals)
    return (2.0 / t ** (1.0 + 3.0 * a)) * math.cos(0.5 * math.pi * (1.0 + bta)) * bracket * i3


def current_naber(
    alpha: float,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
) -> float:
    """Plateau-with-correction model on the diagonal beta = alpha:

        J(t) ~ (1/alpha^2) Int (lambda^(1/alpha))' chi^2 dk
             + (2 t^-alpha / (alpha Gamma(1-alpha)))
                   Int lambda^((1-alpha)/alpha) chi chi'
                       cos(pi alpha/2 + t lambda^(1/alpha)) dk.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if not t > 0.0:
        raise DomainError(f"current_naber requires t > 0, got {t!r}")
    tab = _table(model, profile, grid, rule, table)
    # (lambda^(1/alpha))' = (1/alpha) lambda^((1-alpha)/alpha) lambda'
    dlam_pow = (1.0 / alpha) * tab.lam ** ((1.0 - alpha) / alpha) * tab.dlam
    lead = (1.0 / alpha**2) * _fsum_dot(tab.rule.weights, dlam_pow * tab.chi_vals**2)
    corr_vals = (
        tab.lam ** ((1.0 - alpha) / alpha)
        * tab.chi_vals
        * tab.dchi_vals
        * np.cos(0.5 * math.pi * alpha + t * tab.lam ** (1.0 / alpha))
    )
    corr = (
        2.0
        * t ** (-alpha)
        * gamma_reciprocal(1.0 - alpha)
        / alpha
        * _fsum_dot(tab.rule.weights, corr_vals)
    )
    return lead + corr


def current_ayh(
    alpha: float,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
) -> float:
    """Decay model at beta = 1:

        J(t) ~ -(2 / t^(1+3 alpha))
               [ 1/(Gamma(1-2a) Gamma(-a)) - 1/(Gamma(1-a) Gamma(-2a)) ]
               Int lambda^-3 chi chi' dk,

    the beta = 1 slice of the case-2 model (cos(pi (1+1)/2) = -1), and it is
    evaluated through that code path so the two agree exactly.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"decay model requires alpha in (0, 1), got {alpha!r}")
    return current_asymptotic_case2(
        FractionalOrder(alpha, 1.0), model, profile, grid, rule, t, table
    )


def log_current_case1(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
) -> Tuple[float, float]:
    """(sign, ln|J|) of the case-1 leading term, valid past double overflow.

    The quadrature sum of a_i exp(b_i t) is taken with a signed log-sum-exp,
    so t is limited only by b_max * t staying inside double range (~1e308
    in the exponent), not by J itself being representable.  The oscillatory
    t^-alpha correction is exponentially negligible at these times and is
    not included.
    """
    a, bta = order.alpha, order.beta
    if bta > a:
        raise DomainError(
            f"log form exists only for beta <= alpha, got alpha={a}, beta={bta}"
        )
    if not t > 0.0:
        raise DomainError(f"log_current_case1 requires t > 0, got {t!r}")
    tab = _table(model, profile, grid, rule, table)
    theta = order.theta
    p1 = 0.5 * math.pi * (1.0 + bta)
    lam_pow = tab.lam ** (1.0 / a)
    coef = (
        (2.0 / a**2)
        * math.cos(theta * (1.0 - a) + p1)
        * tab.rule.weights
        * lam_pow
        * tab.chi_vals
        * tab.dchi_vals
    )
    slope = 2.0 * lam_pow * math.cos(theta)
    mask = coef != 0.0
    if not np.any(mask):
        raise DomainError("integrand vanishes at every node; no log value")
    logs = np.log(np.abs(coef[mask])) + slope[mask] * t
    signs = np.sign(coef[mask])
    m = float(np.max(logs))
    s = math.fsum(signs * np.exp(logs - m))
    if s == 0.0:
        raise DomainError("complete cancellation in log-sum-exp")
    return (math.copysign(1.0, s), m + math.log(abs(s)))


# ---------------------------------------------------------------------------
# traces and fitting
# ---------------------------------------------------------------------------


def map_over_times(fn, times: Sequence[float]):
    """Apply fn to each time, results in input order."""
    return [fn(t) for t in times]


@dataclass(frozen=True)
class TransportTrace:
    """A sampled time series of one observable, tagged by its evaluator."""

    times: np.ndarray
    values: np.ndarray
    method: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"unknown trace method {self.method!r}")
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise DomainError("trace times/values must be matching 1-d arrays")
        if np.any(np.diff(self.times) <= 0.0):
            raise DomainError("trace times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("trace values must be finite")


def current_trace(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    times: Sequence[float],
    method: str = "Direct",
    table: Optional[SpectralTable] = None,
    acc: MLAccuracy = DEFAULT_ACCURACY,
) -> TransportTrace:
    """Sweep one evaluator over a time grid, sharing a single spectral table."""
    tab = _table(model, profile, grid, rule, table)
    if method == "Direct":
        fn = lambda t: _current_direct_on_table(order, tab, t, acc)
    elif method == "AsymptoticCase1":
        fn = lambda t: current_asymptotic_case1(
            order, model, profile, grid, rule, t, tab
        )
    elif method == "AsymptoticCase2":
        fn = lambda t: current_asymptotic_case2(
            order, model, profile, grid, rule, t, tab
        )
    elif method == "Naber":
        fn = lambda t: current_naber(order.alpha, model, profile, grid, rule, t, tab)
    elif method == "AYH":
        fn = lambda t: current_ayh(order.alpha, model, profile, grid, rule, t, tab)
    elif method == "BetaLine":
        fn = lambda t: current_beta_line(order.beta, model, profile, grid, rule, t, tab)
    elif method == "Schrodinger":
        const = current_schrodinger(model, profile, grid, rule, tab)
        fn = lambda t: const
    else:
        raise DomainError(f"unknown trace method {method!r}")
    values = map_over_times(fn, times)
    return TransportTrace(
        times=np.asarray(list(times), dtype=float),
        values=np.asarray(values, dtype=float),
        method=method,
    )


@dataclass(frozen=True)
class FitResult:
    """Slope fit of a trace on a window.

    max_rel_residual measures the fit in value space: the largest
    |fitted/actual - 1| over the window samples.
    """

    slope: float
    intercept: float
    max_rel_residual: float
    n_used: int


def fit_exponent(trace: TransportTrace, window: Tuple[float, float], mode: str) -> FitResult:
    """Least-squares growth or decay rate of |trace| over a time window.

    mode "semilog" fits ln|J| against t (exponential rate); mode "loglog"
    fits ln|J| against ln t (power-law exponent).  Requires at least eight
    samples inside the window and a single sign throughout; a sign change
    raises SignChange since the log of the magnitude would be meaningless.
    """
    if mode not in ("semilog", "loglog"):
        raise DomainError(f"fit mode must be 'semilog' or 'loglog', got {mode!r}")
    lo, hi = window
    sel = (trace.times >= lo) & (trace.times <= hi)
    t = trace.times[sel]
    v = trace.values[sel]
    if t.shape[0] < 8:
        raise DomainError(
            f"fit window [{lo}, {hi}] holds {t.shape[0]} samples; need at least 8"
        )
    if np.any(v == 0.0):
        raise SignChange("trace touches zero inside the fit window")
    signs = np.sign(v)
    if not np.all(signs == signs[0]):
        raise SignChange("trace changes sign inside the fit window")
    y = np.log(np.abs(v))
    x = t if mode == "semilog" else np.log(t)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    max_rel = float(np.max(np.abs(np.expm1(pred - y))))
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        max_rel_residual=max_rel,
        n_used=int(t.shape[0]),
    )
