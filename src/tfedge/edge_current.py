"""Edge current of a band-localised wavepacket under fractional dynamics.

The state is prepared as chi(k) phi_1(x; k) on the first transverse band and
evolved by the half-plane dynamics of order pair (alpha, beta).  The current
carried along the edge reduces to a one-dimensional momentum integral

    J(t) = 2 t^(alpha-1) Int lambda_1 chi chi' Re{ (-i)^(1+beta)
              E_{a,a}(z) conj(E_{a,1}(z)) } dk,     z = (-i)^beta t^alpha lambda_1(k).

J and the four spreading channels of msd are rows of one channel table: a
t-prefactor times a node sum of a weight times Re{phase E_L(z) conj(E_R(z))},
with E_L and E_R each E_{a,a} or E_{a,1}.  Two paths read the table.  The
exact kernel (current_trace, current_direct; msd_trace, msd_direct) takes
every E from one evaluator call per sweep.  The closed-form models replace each
E by terms of its large-|z| split (Gorenflo, Kilbas, Mainardi and Rogosin,
Mittag-Leffler Functions (2014) 4.7; Garrappa, SIAM J. Numer. Anal. 53
(2015) 1350)

    E_{a,s}(z) = (1/a) z^((1-s)/a) exp(z^(1/a))        [while |arg z| < pi a]
                 - sum_{k>=1} z^-k / Gamma(s - k a) + (exponentially small),

and sum the chosen term pairs.  The three regimes follow: exponential growth
when beta < alpha (the residue pair), a constant plateau with oscillatory
t^(-alpha) correction when beta = alpha, and power-law decay t^-(1+n alpha)
when beta > alpha from the algebraic pairs.  The generic order is n = 3;
its coefficient vanishes identically at alpha = 1/2, where n = 4 leads for
beta < 1 and every algebraic order vanishes at beta = 1 (the current there
is exponentially small).

Everything spectral (lambda_1, lambda_1', and the momentum-gradient norm of
phi_1) is computed once per quadrature node and reused across all times; see
SpectralTable.  Where a node value leaves double range the evaluators raise
OverflowGuard, and log_current_case1 carries the growth regime on.
current_direct and current_naber keep the (order, model, profile, grid,
rule, t, table) form but read only the order, t and the table.  Quadrature
sums are correctly rounded (math.fsum), so they do not depend on summation
order and runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, OverflowGuard, SignChange
from .fiber_spectrum import (
    HalfLineGrid,
    ModelParams,
    dk_phi1,  # noqa: F401  perfbench's traced run rebinds these two names
    fiber_band,
    solve_ground_state,  # noqa: F401
)
from .mittag_leffler import (
    _ml_values,
    _roots,
    gamma_reciprocal,
    ml_eval,  # noqa: F401  perfbench's traced run rebinds edge_current.ml_eval
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
    "current_asymptotic_case1",
    "current_asymptotic_case2",
    "current_naber",
    "log_current_case1",
    "current_trace",
    "fit_exponent",
    "map_over_times",
]

METHODS = (
    "Direct",
    "AsymptoticCase1",
    "AsymptoticCase2",
    "Naber",
    "Schrodinger",
)


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
        if not (np.isfinite(self.nodes).all() and np.isfinite(self.weights).all()):
            raise DomainError("QuadratureRule nodes and weights must be finite")
        if self.n_nodes < 32:
            raise DomainError(
                f"QuadratureRule needs at least 32 nodes, got {self.n_nodes}"
            )
        width = self.b - self.a
        if not (width > 0.0 and math.isfinite(width)):
            raise DomainError("QuadratureRule needs finite a < b")
        if abs(float(np.sum(self.weights)) - width) > 1e-12 * width:
            raise DomainError("QuadratureRule weights do not resum to the interval")
        if not (self.a <= self.nodes.min() and self.nodes.max() <= self.b):
            raise DomainError("QuadratureRule nodes must lie in [a, b]")

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
    of dk phi_1 (from the same Ritz pairs as lam, so it costs no further
    solve).  chi_vals/dchi_vals are the profile and its derivative at the
    nodes.  All downstream integrands are plain array expressions over these.
    """

    rule: QuadratureRule
    lam: np.ndarray
    dlam: np.ndarray
    cap: np.ndarray
    chi_vals: np.ndarray
    dchi_vals: np.ndarray
    # the memos of _channel_weights and _band_roots, kept with the table
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _roots: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_spectral_table(
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    with_cap: bool = True,
) -> SpectralTable:
    """Solve the fiber problem at every node at once (fiber_band).

    Every table carries cap.  with_cap has no effect; it stays because
    perfbench's workloads still pass it.
    """
    lam, dlam, cap = fiber_band(model, rule.nodes, grid)
    return SpectralTable(
        rule=rule,
        lam=lam,
        dlam=dlam,
        cap=cap,
        chi_vals=chi(profile, rule.nodes),
        dchi_vals=chi_deriv(profile, rule.nodes),
    )


def _fsum(terms: list) -> float:
    """Correctly rounded sum of a list of floats, independent of order;
    OverflowGuard if an entry or the sum has left double range."""
    try:
        total = math.fsum(terms)
    except (ValueError, OverflowError):  # -inf + inf, or a sum past double range
        total = math.nan
    return _finite(total, "a quadrature sum")


def _finite(value: float, what: str) -> float:
    """value, or OverflowGuard if it has left double range."""
    if not math.isfinite(value):
        raise OverflowGuard(f"{what} exceeds double range; use the log-value pathway")
    return value


def _band_roots(tab, alpha):
    """mittag_leffler._roots(alpha, lam): g = lam^(1/alpha) and its extremes, once per table and alpha."""
    return tab._roots.get(alpha) or tab._roots.setdefault(alpha, _roots(alpha, tab.lam))


def _ml_over_times(order, tab, times):
    """E_{a,a} and E_{a,1} at z = (-i)^beta t^alpha lambda, shape (2, times,
    nodes), from one call of the array entry with the table's roots."""
    if not all(t > 0.0 for t in times):
        raise DomainError(f"the exact kernel requires t > 0, got {min(times)!r}")
    a = order.alpha
    return _ml_values(a, (a, 1.0), times, tab.lam, order.beta, _band_roots(tab, a))


# ---------------------------------------------------------------------------
# the channel table and its two evaluation paths
# ---------------------------------------------------------------------------


class _Channel(NamedTuple):
    """One observable bilinear in (E_{a,a}(z), E_{a,1}(z)):

        coef t^(q0 + q1 alpha) Int weight Re{ (-i)^(p0 + p1 beta) E_L(z) conj(E_R(z)) } dk

    with E_L, E_R = (E_{a,a}, E_{a,1})[pair].  by_parts(table, m), J's alone,
    is weight * lambda^m integrated by parts: Int lambda^(1+m) chi chi' dk =
    -(1+m)/2 Int lambda^m lambda' chi^2 dk, as chi and all its derivatives
    vanish at the window ends.
    """

    pair: Tuple[int, int]
    phase: Tuple[float, float]
    scale: Tuple[float, float, float]
    weight: Callable[[SpectralTable], np.ndarray]
    by_parts: Optional[Callable[[SpectralTable, float], np.ndarray]] = None


# J, and the ballistic (A), width (B), deformation (C) and cross (F)
# channels of the second moment (msd)
_CHANNELS = {
    "J": _Channel(
        (0, 1), (1.0, 1.0), (2.0, -1.0, 1.0),
        lambda tab: tab.lam * tab.chi_vals * tab.dchi_vals,
        lambda tab, m: -0.5 * (1.0 + m) * tab.lam**m * tab.dlam * tab.chi_vals**2,
    ),
    "A": _Channel((0, 0), (0.0, 0.0), (1.0, 0.0, 2.0), lambda tab: tab.dlam**2 * tab.chi_vals**2),
    "B": _Channel((1, 1), (0.0, 0.0), (1.0, 0.0, 0.0), lambda tab: tab.dchi_vals**2),
    "C": _Channel((1, 1), (0.0, 0.0), (1.0, 0.0, 0.0), lambda tab: tab.chi_vals**2 * tab.cap),
    "F": _Channel(
        (0, 1), (0.0, 1.0), (2.0, 0.0, 1.0), lambda tab: tab.dlam * tab.dchi_vals * tab.chi_vals
    ),
}


def _scale(channel, alpha, t, m=0.0):
    """The channel's t-prefactor times (t^alpha)^m."""
    coef, q0, q1 = channel.scale
    return coef * t ** (q0 + alpha * (q1 + m))


def _channel_weights(tab, names):
    """The weights of the named channels at the nodes, shape (channels, 1,
    nodes), read-only; formed once per table and kept with it."""
    weights = tab._weights.get(names)
    if weights is None:
        weights = tab._weights[names] = np.array([_CHANNELS[name].weight(tab) for name in names])[:, None, :]
        weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=64)
def _kernel(names, beta):
    """The table-free constants of _exact for the named channels at beta,
    kept across calls: the phases (-i)^(p0 + p1 beta), shape (channels, 1,
    1), and the rows of E_L and E_R in (E_{a,a}, E_{a,1}), a slice (a view
    of E) for one channel and indices for more."""
    channels = [_CHANNELS[name] for name in names]
    phases = np.array([neg_i_power(ch.phase[0] + ch.phase[1] * beta) for ch in channels])[:, None, None]
    rows = np.array([ch.pair for ch in channels]).T
    phases.flags.writeable = rows.flags.writeable = False
    left, right = (slice(k[0], k[0] + 1) if k.size == 1 else k for k in rows)
    return phases, left, right


def _exact(order, tab, times, names):
    """The named channels at each time from the exact kernel: one call of
    the array entry, one product rule weight x channel weight x
    Re{phase E_L conj(E_R)} over (channels, times, nodes), and one correctly
    rounded sum per channel and time, where _fsum turns an entry past
    double range into OverflowGuard.  The weights are formed once per table
    (_channel_weights), the phases and rows of E once per (names, beta)
    (_kernel)."""
    phases, left, right = _kernel(names, order.beta)
    e = _ml_over_times(order, tab, times)
    # E's rows: views for a lone channel, copies for several (take is faster than indexing)
    e_l, e_r = (e[left], e[right]) if isinstance(left, slice) else (e.take(left, axis=0), e.take(right, axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = tab.rule.weights * (_channel_weights(tab, names) * (phases * e_l * np.conj(e_r)).real)
    alpha, values = order.alpha, []
    for t, rows in zip(times, terms.swapaxes(0, 1).tolist()):
        row_values = []
        for name, row in zip(names, rows):
            row_values.append(_finite(_scale(_CHANNELS[name], alpha, t) * _fsum(row), f"channel {name}"))
        values.append(row_values)
    return values


def _term(alpha, sigma, k):
    """(c, m, e) of term k of the split E_{alpha,sigma}(z) = sum_k c z^m
    exp(e z^(1/alpha)): k = 0 is the residue, k >= 1 the algebraic term
    -z^-k / Gamma(sigma - k alpha), exactly zero on the poles of Gamma."""
    if k == 0:
        return 1.0 / alpha, (1.0 - sigma) / alpha, 1
    return -gamma_reciprocal(sigma - k * alpha), -float(k), 0


def _pairs(order, name, pairs):
    """(coefficient, m, rate) of each (k_L, k_R) in pairs whose split terms
    do not vanish: on z = (-i)^beta t^alpha lambda the pair is coefficient
    (t^alpha lambda)^m exp(t lambda^(1/alpha) rate), its coefficient
    c_L c_R (-i)^(p0 + beta (p1 + m_L - m_R)) carrying channel `name`'s
    phase and rate = e_L u + e_R conj u, u = (-i)^(beta/alpha)."""
    ch = _CHANNELS[name]
    a, bta = order.alpha, order.beta
    sigmas = (a, 1.0)
    u = neg_i_power(bta / a)
    for k_l, k_r in pairs:
        c_l, m_l, e_l = _term(a, sigmas[ch.pair[0]], k_l)
        c_r, m_r, e_r = _term(a, sigmas[ch.pair[1]], k_r)
        if c_l * c_r != 0.0:
            coef = c_l * c_r * neg_i_power(ch.phase[0] + bta * (ch.phase[1] + m_l - m_r))
            yield coef, m_l + m_r, e_l * u + e_r * u.conjugate()


def _split(order, tab, t, name, pairs):
    """Channel `name` with E_L and E_R replaced by the split terms k_L and
    k_R of each (k_L, k_R) in pairs, summed over the pairs.

    Each pair is read from _pairs, its phase joined with the channel's in
    one exact power of -i.  A pair with no growth factor (both algebraic, or
    both residues on beta = alpha) is a power of lambda, which J takes by
    parts.
    """
    if not t > 0.0:
        raise DomainError(f"the closed-form models require t > 0, got {t!r}")
    ch = _CHANNELS[name]
    lam_root = _band_roots(tab, order.alpha)[0]
    weight = _channel_weights(tab, (name,))[0, 0]
    scales, sums = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for coef, m, rate in _pairs(order, name, pairs):
            if rate == 0.0:
                power = ch.by_parts(tab, m) if ch.by_parts else weight * tab.lam**m
                nodes = power * coef.real
            else:
                growth = np.exp(t * lam_root * rate)
                nodes = weight * tab.lam**m * (coef * growth).real
            scales.append(_scale(ch, order.alpha, t, m))
            sums.append(_fsum((tab.rule.weights * nodes).tolist()))
    return _fsum((np.array(scales) * np.array(sums)).tolist())


def _algebraic(name, n):
    """The algebraic term pairs of channel `name` at order t^(q0 - n alpha)."""
    total = int(_CHANNELS[name].scale[2]) + n
    return [(k, total - k) for k in range(1, total)]


# the residue of E_{a,a} against the residue and first algebraic term of E_{a,1}
_CASE1 = ((0, 0), (0, 1))


def _decay_order(order):
    """The first algebraic order n of J whose term pairs do not cancel: 3 in
    general, 4 at alpha = 1/2.  The pairs of one order (_algebraic) share the
    power lambda^m, so it vanishes with the sum of the real parts of their
    coefficients (_pairs), and no table is needed.  DomainError if every order
    up to 7 cancels, as at (1/2, 1), where J is exponentially small."""
    for n in range(1, 8):
        if math.fsum(coef.real for coef, _, _ in _pairs(order, "J", _algebraic("J", n))) != 0.0:
            return n
    raise DomainError(f"every algebraic order up to 7 vanishes at alpha={order.alpha}, beta={order.beta}")


def decay_exponent(order: FractionalOrder) -> Optional[float]:
    """Power-law exponent -(1 + n alpha) of J in the decay regime, else None;
    n is the leading algebraic order (_decay_order)."""
    return None if order.beta <= order.alpha else -(1.0 + _decay_order(order) * order.alpha)


# ---------------------------------------------------------------------------
# current evaluations
# ---------------------------------------------------------------------------


def current_direct(
    order: FractionalOrder,
    model,
    profile,
    grid,
    rule,
    t: float,
    table: SpectralTable,
) -> float:
    """Edge current at time t from the exact evolution kernel; the one-time
    case of current_trace.  model, profile, grid and rule are not read:
    perfbench's workloads still pass them."""
    return _exact(order, table, [t], ("J",))[0][0]


def _current_values(order, tab, times):
    """J at each time from the exact kernel (one evaluator call)."""
    return [row[0] for row in _exact(order, tab, times, ("J",))]


def current_schrodinger(table: SpectralTable) -> float:
    """Time-independent current of the unit-order dynamics, case 1 at
    alpha = beta = 1: Int lambda' chi^2 dk."""
    return current_asymptotic_case1(FractionalOrder(1.0, 1.0), table, 1.0)


def current_asymptotic_case1(order: FractionalOrder, table: SpectralTable, t: float) -> float:
    """Large-time model for beta <= alpha (growing or plateau regime), the
    residue of E_{a,a} against the residue and first algebraic term of E_{a,1}:

        J(t) ~ -(2/alpha^2) sin(theta)
                   Int lambda^(1/alpha) chi chi' exp(2 t lambda^(1/alpha) cos theta) dk
             - (2 t^-alpha / (alpha Gamma(1-alpha)))
                   Int cos(t gamma + theta + pi (1+beta)/2)
                       lambda^((1-alpha)/alpha) chi chi'
                       exp(t lambda^(1/alpha) cos theta) dk

    with theta = pi beta / (2 alpha) and gamma(k) = lambda^(1/alpha) sin theta.
    On beta = alpha the first term has no growth factor and is taken by
    parts, (1/alpha^3) Int lambda^((1-alpha)/alpha) lambda' chi^2 dk (see
    current_naber).  At alpha = 1 the second term vanishes.  OverflowGuard
    once a node value leaves double range; log_current_case1 goes on.
    """
    return _split(_case1(order), table, t, "J", _CASE1)


def _case1(order):
    """order, or DomainError off the case-1 side beta <= alpha."""
    if order.beta > order.alpha:
        raise DomainError(
            f"case-1 model requires beta <= alpha, got alpha={order.alpha}, beta={order.beta}"
        )
    return order


def current_asymptotic_case2(order: FractionalOrder, table: SpectralTable, t: float) -> float:
    """Leading large-time decay for alpha < beta, the algebraic pairs of
    order t^-(1+3 alpha), taken by parts:

        J(t) ~ (3 / t^(1+3 alpha)) cos(pi (1+beta)/2)
               [ 1/(Gamma(1-2a) Gamma(-a)) - 1/(Gamma(1-a) Gamma(-2a)) ]
               Int lambda^-4 lambda' chi^2 dk.

    This is the generic order.  The reciprocal-gamma bracket vanishes
    identically at alpha = 1/2 (1/Gamma(0) = 1/Gamma(-1) = 0), so the model
    returns zero there for every beta.  The next order of the same split
    then leads:

        J(t) ~ t^-(1+4 alpha) (sin(pi beta) / pi) Int lambda^-4 chi chi' dk,

    which is t^-3 for beta < 1.  At beta = 1 every algebraic order vanishes
    and the exact current, -(2/sqrt(pi)) t^-1/2 Int lambda chi chi'
    exp(-t lambda^2) dk, is exponentially small.
    """
    if not order.alpha < order.beta:
        raise DomainError(
            f"case-2 model requires alpha < beta, got alpha={order.alpha}, beta={order.beta}"
        )
    return _split(order, table, t, "J", _algebraic("J", 3))


def current_naber(
    alpha: float,
    model,
    profile,
    grid,
    rule,
    t: float,
    table: SpectralTable,
) -> float:
    """Plateau-with-correction model, case 1 on the diagonal beta = alpha
    (model, profile, grid and rule are not read: perfbench still passes them):

        J(t) ~ (1/alpha^2) Int (lambda^(1/alpha))' chi^2 dk
             + (2 t^-alpha / (alpha Gamma(1-alpha)))
                   Int lambda^((1-alpha)/alpha) chi chi'
                       cos(pi alpha/2 + t lambda^(1/alpha)) dk.
    """
    return current_asymptotic_case1(FractionalOrder(alpha, alpha), table, t)


def log_current_case1(order: FractionalOrder, table: SpectralTable, t: float) -> Tuple[float, float]:
    """(sign, ln|J|) of current_asymptotic_case1 past double overflow: a
    signed log-sum-exp (Blanchard, Higham and Higham, IMA J. Numer. Anal. 41
    (2021) 2311) of the case-1 node terms, of logs ln|scale w weight lambda^m
    Re{coef e^(i t g Im rate)}| + t g Re rate, g = lambda^(1/alpha); so a zero
    weight adds zero, and t is bounded by t g rate < ~1e308 alone."""
    if not t > 0.0:
        raise DomainError(f"the closed-form models require t > 0, got {t!r}")
    ch, g = _CHANNELS["J"], _band_roots(table, order.alpha)[0]
    terms, exponents = [], []
    for coef, m, rate in _pairs(_case1(order), "J", _CASE1):
        power = ch.by_parts(table, m) if rate == 0.0 else ch.weight(table) * table.lam**m
        phased = (coef * np.exp(1j * t * g * rate.imag) * power).real
        terms.append(_scale(ch, order.alpha, t, m) * table.rule.weights * phased)
        exponents.append(t * g * rate.real)
    terms = np.concatenate(terms)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(terms)) + np.concatenate(exponents)
    top = logs.max()
    value = math.fsum((np.sign(terms) * np.exp(logs - top)).tolist())
    if not abs(value) > 0.0:
        raise DomainError("the case-1 sum cancels completely; no log value")
    return math.copysign(1.0, value), top + math.log(abs(value))


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
    table: SpectralTable,
    times: Sequence[float],
) -> TransportTrace:
    """J(t) by the exact kernel over a time grid: one evaluator call over
    every (time, node) pair, then one correctly rounded sum per time."""
    times = [float(t) for t in times]
    return TransportTrace(
        times=np.asarray(times),
        values=np.asarray(_current_values(order, table, times)),
        method="Direct",
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
