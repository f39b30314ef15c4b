"""Norm bounds and residual checks for the fractional evolution.

A finite mode expansion stands in for the full operator: the solution norm is

    ||u(t)||^2 = sum_n w_n |E_{alpha,1}((-i)^beta t^alpha lambda_n)|^2

and the regime-dependent envelopes

    beta > alpha:   1 / (1 + t^alpha lambda)
    beta = alpha:   1
    beta < alpha:   (1 + t^alpha lambda)^((1-beta)/alpha)
                        * exp(t lambda^(1/alpha) cos theta)
                    + 1 / (1 + t^alpha lambda)

majorise the mode amplitudes up to a constant.  certify_bounds finds the
smallest constant on a time grid and checks it is stable under grid
refinement, which is the practical signature of an actual bound rather than
a growing ratio that the grid happened to truncate.

caputo_residual closes the loop on the time-fractional equation itself: the
memory derivative of the computed solution is formed with an L1 product
rule on a graded mesh and compared against the right side of the evolution
equation.  The kernel (T-s)^(-alpha) is singular at s = T and the solution
derivative is steep near s = 0, so the mesh is graded toward both ends; a
one-sided grading leaves an O(1e-3) error floor from the kernel end.

A time grid is array expressions over its (time, mode) pairs, E_{alpha,1}
from one call of the array Mittag-Leffler evaluator (one more per residual
mesh); envelope and solution_norm_sq are the one-time cases.  A NaN or
infinite input is refused with DomainError, a result that is not finite
(the growth regime leaves double range) with OverflowGuard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .edge_current import FractionalOrder, _finite, classify_regime, neg_i_power
from .errors import DomainError, OverflowGuard
from .mittag_leffler import _ml_values
from .mittag_leffler import ml_eval  # noqa: F401  perfbench's traced run rebinds wellposed.ml_eval

__all__ = [
    "ModeSpectrum",
    "envelope",
    "solution_norm_sq",
    "CertifiedBound",
    "certify_bounds",
    "caputo_residual",
]


@dataclass(frozen=True)
class ModeSpectrum:
    """Finite set of modes (lambda_n, w_n) with increasing frequencies.

    The weights are the squared expansion coefficients of the initial state,
    so norm_sq is ||u_0||^2 and dh_norm_sq the squared graph norm.
    """

    lambdas: Tuple[float, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if lam.ndim != 1 or lam.size == 0 or lam.shape != w.shape:
            raise DomainError("ModeSpectrum needs matching nonempty mode lists")
        if not (np.isfinite(lam).all() and (lam > 0.0).all()):
            raise DomainError("mode frequencies must be positive and finite")
        if not (np.diff(lam) > 0.0).all():
            raise DomainError("mode frequencies must be strictly increasing")
        if not (np.isfinite(w).all() and (w >= 0.0).all()):
            raise DomainError("mode weights must be nonnegative and finite")
        if not w.sum() > 0.0:
            raise DomainError("mode weights must not all vanish")

    @property
    def norm_sq(self) -> float:
        return float(sum(self.weights))

    @property
    def dh_norm_sq(self) -> float:
        lam = np.asarray(self.lambdas, dtype=float)
        return float(((1.0 + lam * lam) * self.weights).sum())

    @property
    def lambda_max(self) -> float:
        return float(self.lambdas[-1])


def _envelopes(order: FractionalOrder, lam, t) -> np.ndarray:
    """Regime envelope at every pair of the broadcast arrays lam > 0 and
    t >= 0; inf (or nan) where it leaves double range."""
    a, bta = order.alpha, order.beta
    lam, t = np.asarray(lam, dtype=float), np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ta_lam = t**a * lam
        decay = 1.0 / (1.0 + ta_lam)
        if bta > a:
            return decay
        if bta == a:
            return np.ones_like(decay)
        # the exponent is 0 at t = 0, also where lam^(1/alpha) overflows
        grow = np.exp(np.where(t > 0.0, t * lam ** (1.0 / a) * math.cos(order.theta), 0.0))
        return (1.0 + ta_lam) ** ((1.0 - bta) / a) * grow + decay


def envelope(order: FractionalOrder, lam: float, t: float) -> float:
    """Regime envelope for a single mode amplitude |E_{a,1}(z)| at time t."""
    if not (0.0 < lam < math.inf and 0.0 <= t < math.inf):
        raise DomainError("envelope needs a finite lam > 0 and t >= 0")
    return _finite(float(_envelopes(order, lam, t)), f"envelope at t = {t!r}")


def _norms_sq(order: FractionalOrder, spectrum: ModeSpectrum, times: np.ndarray) -> np.ndarray:
    """Squared solution norm at each of the finite times >= 0, from one
    Mittag-Leffler call over every (time, mode) pair; inf past double range."""
    with np.errstate(over="ignore"):
        amps = _ml_values(order.alpha, (1.0,), times, spectrum.lambdas, order.beta)[0]
        return (np.abs(amps) ** 2 * spectrum.weights).sum(axis=1)


def solution_norm_sq(order: FractionalOrder, spectrum: ModeSpectrum, t: float) -> float:
    """Squared solution norm of the mode expansion at time t >= 0."""
    if not 0.0 <= t < math.inf:
        raise DomainError(f"solution_norm_sq requires a finite t >= 0, got {t!r}")
    norm_sq = float(_norms_sq(order, spectrum, np.array([t], dtype=float))[0])
    return _finite(norm_sq, f"||u(t)||^2 at t = {float(t)!r}")


def _bounds_sq(order: FractionalOrder, spectrum: ModeSpectrum, times: np.ndarray) -> np.ndarray:
    """Squared comparison bound at each of the times; inf past double range.

    Decaying and plateau regimes use the per-mode envelope; the growing
    regime uses the top-mode envelope against the graph norm, since the
    fastest mode controls the growth of the whole sum.
    """
    with np.errstate(over="ignore"):
        if order.beta >= order.alpha:
            env = _envelopes(order, spectrum.lambdas, times[:, None])
            return (env**2 * spectrum.weights).sum(axis=1)
        return _envelopes(order, spectrum.lambda_max, times) ** 2 * spectrum.dh_norm_sq


@dataclass(frozen=True)
class CertifiedBound:
    """Outcome of fitting the smallest constant C with norm <= C * bound."""

    regime: str
    constant: float
    refined_constant: float
    rel_drift: float
    passed: bool


def certify_bounds(
    order: FractionalOrder, spectrum: ModeSpectrum, times: Sequence[float]
) -> CertifiedBound:
    """Smallest C with ||u(t)||^2 <= C^2 * bound(t)^2 over the time grid.

    The certificate passes when C moves by less than 1% when the grid
    density is doubled over the same range.  Both grids take their norms
    from one Mittag-Leffler call over the union of their times, and are
    refused with OverflowGuard at the first time of the grid, then of the
    refinement, whose norm or bound is not finite.
    """
    ts = np.asarray(list(times), dtype=float)
    if ts.ndim != 1 or ts.shape[0] < 4:
        raise DomainError("certify_bounds needs at least 4 times")
    if not (np.isfinite(ts).all() and ts[0] >= 0.0 and (np.diff(ts) > 0.0).all()):
        raise DomainError("times must be finite, nonnegative and strictly increasing")
    # double the density, keep the range; geometric refinement when the grid
    # spans decades, arithmetic otherwise
    if ts[0] > 0.0 and ts[-1] / ts[0] > 50.0:
        fine = np.geomspace(ts[0], ts[-1], 2 * ts.shape[0] - 1)
    else:
        fine = np.linspace(ts[0], ts[-1], 2 * ts.shape[0] - 1)
    union = np.union1d(ts, fine)
    norms, bounds = _norms_sq(order, spectrum, union), _bounds_sq(order, spectrum, union)
    finite = np.isfinite(norms) & np.isfinite(bounds)

    def fit_constant(grid):
        at = np.searchsorted(union, grid)
        if not finite[at].all():
            t = float(grid[np.argmin(finite[at])])
            raise OverflowGuard(f"||u(t)||^2 or its bound at t = {t!r} exceeds double range")
        return math.sqrt(float(np.max(norms[at] / bounds[at])))

    c1, c2 = fit_constant(ts), fit_constant(fine)
    drift = abs(c2 - c1) / c1 if c1 > 0.0 else math.inf
    return CertifiedBound(
        regime=classify_regime(order),
        constant=c1,
        refined_constant=c2,
        rel_drift=drift,
        passed=bool(drift < 0.01),
    )


def _graded_mesh_two_sided(T: float, n: int) -> np.ndarray:
    """Mesh on [0, T] clustered quadratically at both ends."""
    half = n // 2
    j = np.arange(half + 1)
    left = 0.5 * T * (j / half) ** 2.0
    right = T - 0.5 * T * (j[::-1] / half) ** 2.0
    return np.concatenate([left, right[1:]])


def caputo_residual(
    order: FractionalOrder,
    lam: float,
    T: float,
    n_points: int = 500,
) -> float:
    """Relative residual of the evolution equation at time T for one mode.

    The memory derivative of u(t) = E_{alpha,1}((-i)^beta t^alpha lam),
    taken on the whole two-sided graded mesh by one Mittag-Leffler call, is
    approximated by the L1 product rule and compared with
    (-i)^beta lam u(T).  Returns |lhs - rhs| / |rhs|.

    Only its first six or seven digits are fixed: the rule divides
    differences of u by mesh cells as small as 1.6e-5 (n_points = 500,
    T = 2), so rounding u by one unit in the last place moves the residual
    by 7.6e-8 to 1.1e-6 relative (alpha = 0.8, beta in {0.8, 1},
    T in {0.5, 1, 2}).  `tfedge verify` reports it to 6 significant digits.
    There the largest such move is 0.1 of a unit in the last digit for a
    leading 1 (its residuals are about 1.1e-5 to 1.4e-5), and up to a whole
    unit for a leading 9, so a changed cell is rarer, not impossible: a
    value that close to a rounding half-point still tips over.
    """
    a, bta = order.alpha, order.beta
    if not (0.0 < a < 1.0):
        raise DomainError(
            f"memory-derivative check needs alpha in (0, 1), got {a!r}"
        )
    if not (0.0 < lam < math.inf and 0.0 < T < math.inf):
        raise DomainError("caputo_residual needs a finite lam > 0 and T > 0")
    if n_points < 16:
        raise DomainError("n_points must be at least 16")
    mesh = _graded_mesh_two_sided(T, int(n_points))
    u = _ml_values(a, (1.0,), mesh, [lam], bta)[0, :, 0]
    # past double range the slopes turn inf or nan, and so does the residual
    with np.errstate(over="ignore", invalid="ignore"):
        # piecewise-linear u against the exact kernel integral on each cell:
        # Int_{t_j}^{t_{j+1}} (T-s)^(-a) ds = ((T-t_j)^(1-a) - (T-t_{j+1})^(1-a)) / (1-a)
        du = np.diff(u) / np.diff(mesh)
        kernel = ((T - mesh[:-1]) ** (1.0 - a) - (T - mesh[1:]) ** (1.0 - a)) / (1.0 - a)
        lhs = complex(np.sum(du * kernel)) / math.gamma(1.0 - a)
        rhs = neg_i_power(bta) * lam * u[-1]
        residual = float(abs(lhs - rhs) / abs(rhs))
    return _finite(residual, f"the memory residual at T = {T!r}")
