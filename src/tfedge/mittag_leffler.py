"""Two-parameter Mittag-Leffler function on the complex plane.

    E_{alpha,sigma}(z) = sum_{n>=0} z^n / Gamma(alpha n + sigma)

One float64 evaluator for 0 < alpha <= 1: E is the inverse Laplace
transform at t = 1 of s^(alpha-sigma) / (s^alpha - z),

    E_{alpha,sigma}(z) = (1/2 pi i) Int_C e^s s^(alpha-sigma) / (s^alpha - z) ds
                         + (1/alpha) s*^(1-sigma) e^(s*)  if the pole s* is right of C,

taken by the trapezoidal rule on the optimal parabolic contour
C: s = mu (1 + i u)^2 of Garrappa (SIAM J. Numer. Anal. 53 (2015)
1350-1369; Weideman and Trefethen, Math. Comp. 76 (2007) 1341-1356 for the
parabola), for sigma <= 1 + alpha: the evaluator's domain (MLParams).  The
contour parameters (mu, h, N) come from the singularities: the branch point
s = 0, of strength zero for every sigma of that domain, and the pole s* =
z^(1/alpha), which lies on the principal sheet while |arg z| <= pi alpha.
The evaluator has one accuracy, 1e-12 relative to |E|: where 1/Gamma(sigma
- alpha) = 0, E ~ z^-2 at |z| >= 1 is E_{alpha,sigma-alpha}(z) / z by the
recurrence E_{a,s}(z) = 1/Gamma(s) + z E_{a,s+a}(z) (Gorenflo, Kilbas,
Mainardi and Rogosin 2014, ch. 4), and the contour runs at 1e-14
(_LOG_EPS).  Within its reach E is the float64 Taylor series (_taylor) of
Gorenflo, Loutchko and Luchko (Fract. Calc. Appl. Anal. 5 (2002)), by one
rule: a z takes it at |z| <= reach(theta), theta = |arg z|, summing the
fewest terms, at most 64, whose next falls to 2^-60 of the largest at the
reach.  The reach is the radius < 1 where 64 terms do; off the ray on the
principal sheet, theta < pi alpha, it is M(theta) = min(R, (ln 16 / (1 -
cos(theta / alpha)))^alpha) where that is larger, R that radius uncapped
(1.79, 6.11, 15.0 at alpha = 1/2, 0.8, 1): there the terms' moduli sum to
about (1/alpha) rho^(1-sigma) e^rho, rho = |z|^(1/alpha), at most 16 times
the residue that |E| follows.  The series also serves where sigma <= 0
leaves E ~ z / Gamma(sigma + alpha) small against the contour's absolute
error (see ml_eval).

Two cases take exact routes:

- alpha = sigma = 1 returns exp(z), which is exponentially small where the
  contour sum is O(1);
- on the ray |arg z| = pi alpha (for |z| >= 1, sigma <= 1) the pole sits on
  the branch cut, and E is half its residue plus the principal value of the
  real-line integral of Gorenflo, Loutchko and Luchko, taken at |z| e^(i pi
  alpha).  The sines and cosines of multiples of pi/2 are exact there, so
  at alpha = 1/2, sigma in {1/2, 1} one component of E is the half residue
  alone: Re E_{1/2,1}(-iy) = exp(-y^2) to full relative accuracy.  Each z is a few rows kept across
  calls (_ray_rows) times one factor of its own.

E is evaluated at Im z >= 0 and conjugated below the real axis, so
E(conj z) == conj E(z) bit for bit.  A value that is not finite is
refused with OverflowGuard, by one check at the end of each sweep.

One routing pass serves every call, by sweeps: the z of one argument, on
one ray from the origin.  _ml_values, the array entry of the library's
sweeps, takes the z = (-i)^beta t^alpha lambda of a sweep as times t,
lambdas and beta, and rho = |z|^(1/alpha) as t lambda^(1/alpha) (_roots);
_ml_at takes any array, split by argument into sweeps (_by_argument), for
ml_pair; ml_eval takes its z as a one-element sweep.  Each hands the
sweep its moduli, rho and their extremes.  What the orders alone decide is
kept across calls (_order_constants), what the sweep's argument decides
(the ray, the sheet, the conjugation, the pole's angle) is decided once
with Python scalars, and per z only the pole's vertex and one small-integer
route group are formed (_sweep); a contour group names its parabola and
its rows, shifted at |z| >= 1 only.  Each group is evaluated
where it is found, writing into the one output array, so a time sample
over a quadrature table is one reciprocal per entry of a Cauchy matrix
1/(z_i - s_j^alpha) and one BLAS dot product per sigma and z.  The E at a
z is a function of (alpha, sigma, z) alone: it does not depend on its
position, on the other z or on the other sigmas of the call, bit for bit,
so ml_eval equals _ml_at and ml_pair at the same z and sigma.

Poles share parabolas: a parabola built for a pole at vertex phi stays
valid for every pole farther from it on the same side, so the pole
vertices fall into the windows of one table built at import (_WINDOWS).
The parabolas' nodes (_nodes) and the ray's rows are kept across calls.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OverflowGuard

__all__ = [
    "MLParams",
    "gamma_reciprocal",
    "neg_i_power",
    "ml_eval",
    "ml_pair",
    "ml_deriv",
]

# natural log of the float64 unit roundoff
_LOG_UNIT = math.log(np.finfo(float).eps)

# most trapezoidal nodes on either side of the contour's vertex
_N_MAX = 200
# i k for the node indices k = -_N_MAX .. _N_MAX
_I_STEPS = 1j * np.arange(-_N_MAX, _N_MAX + 1, dtype=float)

# Garrappa's tolerance bounds the error against the O(1/z) integrand on the
# contour: E_{alpha,alpha} ~ z^-2 falls far below it, E_{alpha,0} ~ 1/z does
# not, so taking E_{alpha,0}(z) / z (the shifted rows of _order_constants)
# the contour runs at 1e-14
_LOG_EPS = math.log(1e-14)
# the window constant: every pole vertex at or beyond it (about 6) has the
# one parabola of the vertex _CLIP, where _region_below clamps its vertex
_CLIP = 4.0 * (math.log(1e-15) - _LOG_UNIT)

# entries per block of a parabola's Cauchy matrix: 16 z at the most nodes,
# one 0.1 MB complex temporary, which every sigma shares
_CAUCHY_CELLS = 16 * (2 * _N_MAX + 1)

# |arg z| within this of pi*alpha counts as the ray
_RAY_TOL = 1e-14
# beyond rho = r^(1/alpha) = 50 the real-line integrand is below e^-50
_RHO_CUT = 50.0


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, sigma) of the Mittag-Leffler function, 0 < alpha
    <= 1 and sigma <= 1 + alpha: there the branch point s = 0 of the
    contour's integrand has strength zero."""

    alpha: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(
                f"MLParams.alpha must lie in (0, 1], got {self.alpha!r}"
            )
        if not np.isfinite(self.sigma):
            raise DomainError(f"MLParams.sigma must be finite, got {self.sigma!r}")
        if self.sigma > 1.0 + self.alpha:
            raise DomainError(f"MLParams.sigma must be at most 1 + alpha, got {self.sigma!r} at alpha = {self.alpha!r}")


def gamma_reciprocal(x: float) -> float:
    """1/Gamma(x) as a total function on the reals.

    Returns exactly 0.0 at the poles of Gamma (x = 0, -1, -2, ...), where
    terms of the algebraic expansions drop out.  Where Gamma or its
    reciprocal leaves double range (|x| > 170) it goes through log|Gamma|,
    and is 0.0 or infinite past that range.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if abs(x) <= 170.0:
        return 1.0 / math.gamma(x)
    # Gamma is negative on (-1, 0), (-3, -2), ...
    sign = -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0
    log_r = -math.lgamma(x)
    return sign * (math.exp(log_r) if log_r < 709.0 else math.inf)


# (-i)^n indexed by n mod 4, written out so that no component is a rounded zero
_NEG_I_POWERS = (
    complex(1.0, 0.0),
    complex(0.0, -1.0),
    complex(-1.0, 0.0),
    complex(0.0, 1.0),
)


@functools.lru_cache(maxsize=64)
def neg_i_power(p: float) -> complex:
    """(-i)^p = exp(-i pi p / 2), exact whenever p is an integer; the few
    powers of a run (its beta, the channel phases) are kept across calls.

    The rounded exp(-i pi / 2) is 6.1e-17 - 1j; in the evolution phases that
    stray real part leaks 1e-16-relative algebraic terms into real parts that
    vanish identically, such as the current at (alpha, beta) = (1/2, 1).
    """
    if float(p).is_integer():
        return _NEG_I_POWERS[int(p) % 4]
    return complex(np.exp(-0.5j * math.pi * p))


def _cis_pi(x: float) -> complex:
    """exp(i pi x), exact whenever 2x is an integer."""
    return neg_i_power(-2.0 * x)


# ---------------------------------------------------------------------------
# optimal parabolic contour (Garrappa 2015, with t = 1)
# ---------------------------------------------------------------------------


def _region_below(phi_pole):
    """(mu, h, N) for a parabola between the branch point s = 0, of strength
    zero, and the pole at phi_pole.  Garrappa's OptimalParam_RB with its
    lower singularity at 0."""
    f_max = math.exp(_LOG_EPS - _LOG_UNIT)
    # the roundoff factor, from its least value 1.01
    f_bar = 1.01 + 1.01 / f_max * (f_max - 1.01)
    # the square roots of the region's ends: the branch point's, and the pole's
    sqb_0 = 0.0
    sqb_pole = 2.0 * min(math.sqrt(phi_pole), math.sqrt(_CLIP)) / (2.0 + 1.0 / f_bar)
    # the tolerance left to the discretisation once roundoff has its share
    log_eps_bar = _LOG_EPS - math.log(f_bar)
    w = -sqb_pole * sqb_pole / log_eps_bar
    mu = (((1.0 + w) * sqb_0 + sqb_pole) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_eps_bar * (sqb_pole - sqb_0) / ((1.0 + w) * sqb_0 + sqb_pole)
    return mu, h, math.ceil(math.sqrt(1.0 - log_eps_bar / mu) / h)


def _region_beyond(phi_j):
    """(mu, h, N) right of the last singularity phi_j, a pole of strength 1
    (the branch point, of strength 0, at phi_j = 0); None if roundoff rules
    it out.  Garrappa's OptimalParam_RU, the error factor steered into (1, 10)."""
    sq_phi = math.sqrt(phi_j)
    phib = 1.01 * phi_j if phi_j > 0.0 else 0.01
    sqb = math.sqrt(phib)
    while True:
        le = _LOG_EPS / phib
        n = math.ceil(phib / math.pi * (1.0 - 1.5 * le + math.sqrt(1.0 - 2.0 * le)))
        a = math.pi * n / phib
        sq_mu = sqb * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        if not phi_j or 1.0 < sq_mu / (sqb - sq_phi) < 10.0:
            break
        sqb = 0.2 * sq_mu + sq_phi
        phib = sqb * sqb
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    threshold = _LOG_EPS - _LOG_UNIT
    if mu > threshold:
        q = 0.2 * math.sqrt(mu) if phi_j else 0.0
        if (q + sq_phi) ** 2 >= threshold:
            return None
        w = math.sqrt(_LOG_UNIT / (_LOG_UNIT - _LOG_EPS))
        u = math.sqrt(-((q + sq_phi) ** 2) / _LOG_UNIT)
        mu = threshold
        n = math.ceil(w * _LOG_EPS / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return mu, h, n


def _parabola(key):
    """((mu, h, N), residue) of the parabola with the fewest nodes for the
    pole vertices of the window key, residue telling whether it passes left
    of them.

    The key is 0 for no pole on the principal sheet; _CLIP for every vertex
    at or beyond it; any other key for the octave [key, 2 key) of vertices.
    A parabola below the window's lower end leaves each of its poles to its
    right, farther away than the vertex it was built for, and one beyond its
    upper end to its left.
    """
    if key == 0.0:
        return _region_beyond(0.0), False
    par, residue = _region_below(key), True
    hi = key if key == _CLIP else 2.0 * key
    if hi < _LOG_EPS - _LOG_UNIT:
        right = _region_beyond(hi)
        if right is not None and right[2] < par[2]:
            par, residue = right, False
    return par, residue


def _window_table():
    """(edges, parabolas) of the pole vertices phi: bisect_right(edges, phi)
    indexes phi's parabola, 0 for no pole right of the cut (and phi <= 1e-15
    < edges[0]), the last for phi >= _CLIP.  The octaves [lo, 2 lo), lo =
    _CLIP 2^-j, are walked down to the cut and neighbours with equal
    parabolas merged: 12 windows and the clip's at 1e-14 (_LOG_EPS)."""
    edges, parabolas = [_CLIP], [_parabola(_CLIP)]
    lo = _CLIP
    while lo > 1e-15:
        lo *= 0.5
        parabola = _parabola(lo)
        if parabola == parabolas[-1]:
            edges[-1] = lo
        else:
            edges.append(lo)
            parabolas.append(parabola)
    edges[-1] = math.nextafter(1e-15, math.inf)
    edges = np.array(edges[::-1])
    edges.flags.writeable = False
    return edges, (_parabola(0.0),) + tuple(parabolas[::-1])


_EDGES, _WINDOWS = _window_table()
_EDGE_TUPLE = tuple(_EDGES.tolist())


@functools.lru_cache(maxsize=64)
def _nodes(alpha, sigmas, parabola, shifted):
    """The nodes s_j^alpha of the parabola (mu, h, N) and the weights w_j =
    e^s s^(alpha-sigma) ds / (2 pi i) of the trapezoidal rule there, stored
    as W = -conj(w) for _contour's dot products, as read-only arrays of
    shapes (2N + 1,) and (len(sigmas), 2N + 1): one row per sigma, where
    the shifted rows (indices into sigmas) take the weights of sigma -
    alpha.  Kept across calls: the parabolas are a few per order (one per
    window of pole vertices) and row set, and a sweep over a quadrature
    table leaves one entry.
    """
    mu, h, n = parabola
    # s = mu (1 + iu)^2 at u = h k, with trapezoid factor h (ds/du) / (2 pi i) = mu h (1 + iu) / pi
    v = h * _I_STEPS[_N_MAX - n : _N_MAX + n + 1] + 1.0
    s = mu * v**2
    log_s = np.log(s)
    s_alpha = np.exp(alpha * log_s)
    scale = v * (mu * h / math.pi)
    powers = [(alpha - sigma) + alpha if k in shifted else alpha - sigma for k, sigma in enumerate(sigmas)]
    weights = -np.array([np.exp(s if p == 0.0 else s + p * log_s) * scale for p in powers]).conj()
    for a in (s_alpha, weights):
        a.flags.writeable = False
    return s_alpha, weights


def _contour(alpha, sigmas, z, ids, parabola, exponents, factor, out, shifted):
    """E_{alpha,sigma}(z), each sigma, by the trapezoidal rule on one
    parabola (mu, h, N) shared by the z[ids] of the 1-d array z (ids a slice
    taking every z, or indices), written into out[:, ids].  exponents is
    None, or with the column factor (_residue_row) the residues (1/alpha)
    s*^(1-sigma) e^(s*) = e^(exponents) factor of poles s* right of the
    parabola, exponents of shape (len(sigmas), z[ids].size).  shifted is
    the row set of the z's route group: () for the unshifted rows, or the
    shifted rows (_order_constants), which sum the weights of sigma - alpha
    and are divided by z (the residue is sigma's).

    The nodes and weights W = -conj(w) come from the memo _nodes.  Per
    block of _CAUCHY_CELLS entries the Cauchy matrix g = 1/(z_i - s_j^alpha)
    takes one complex reciprocal an entry, and np.vecdot (which conjugates
    W) sums Sum_j w_j / (s_j^alpha - z_i) for each sigma as one BLAS dot
    over a contiguous row, the same whatever the other z of the call; so a
    z's E does not depend on which z share its parabola (with @ it did).
    Each block's sums are divided and take their residues before the one
    write into out, or in out itself where ids takes every z.
    """
    s_alpha, weights = _nodes(alpha, sigmas, parabola, shifted)
    z = z[ids]
    block = _CAUCHY_CELLS // s_alpha.size
    whole = isinstance(ids, slice)
    for start in range(0, z.size, block):
        rows = slice(start, start + block)
        g = np.subtract.outer(z[rows], s_alpha)
        np.reciprocal(g, out=g)
        values = np.vecdot(weights[:, None, :], g, out=out[:, rows] if whole else None)
        for k in shifted:
            values[k] /= z[rows]
        if exponents is not None:
            values += np.exp(exponents[:, rows]) * factor
        if not whole:
            out[:, ids[rows]] = values


# ---------------------------------------------------------------------------
# the ray |arg z| = pi alpha
# ---------------------------------------------------------------------------


def _tanh_sinh(step, t_max):
    """Tanh-sinh nodes on [0, 1] and their weights."""
    t = np.arange(-t_max, t_max + 0.5 * step, step)
    q = np.exp(-math.pi * np.sinh(t))
    nodes = 1.0 / (1.0 + q)
    weights = step * math.pi * np.cosh(t) * q / (1.0 + q) ** 2
    return nodes, weights


# memoised row entries (rows x abscissae) per block of z on the ray, so a
# block's real factors are temporaries of at most 16 384 doubles, 0.13 MB
_RAY_CELLS = 16384


def _ray_intervals(alpha, r0):
    """Half-width d of the interval folded around r0 on the ray (scalar or
    array r0), and the end r_cut of the integral, where r^(1/alpha) = 50."""
    return r0 * min(0.5, math.sin(math.pi * alpha)), _RHO_CUT**alpha


@functools.lru_cache(maxsize=64)
def _ray_rows(alpha, sigmas, reach):
    """The z-free part of _ray at one reach as read-only arrays (abscissae,
    rows, kept): the rows that are not exactly zero, and their indices kept
    among the 2 len(sigmas) rows, two per sigma.  With p = (1-sigma)/alpha,
    s1 = sin(pi(1-sigma)) and s2 = sin(pi(1-sigma+alpha)):

    reach 0: the abscissae r = r_cut x of tanh-sinh on [0, r_cut] up to
    r^(1/alpha) = 46, where e^(-r^(1/alpha)) < 1e-20 (131 of 206 at alpha
    = 1/2; the cut is alpha's alone, so a sigma's row does not depend on
    the other sigmas), and per sigma the rows s1 r g and s2 g, where g = w
    r^p e^(-r^(1/alpha)) / (alpha pi).

    reach >= 1: in y = r / r0, Y = y^(1/alpha) at the abscissae of
    [0, 1 - delta] (tanh-sinh) and of the fold [1 - delta, 1 + delta]
    (Gauss-Legendre), delta = d / r0, and per sigma the real and imaginary
    parts of the terms

        w y^p (y s1 - e^(i pi alpha) s2) / ((y - e^(2 i pi alpha)) alpha pi)

    at weights w; 302 abscissae.  Reach 2 adds the tail [1 + delta, r_cut]
    (tanh-sinh), 508 in all: an r0 >= 1 needs the tail only up to
    y = r_cut / r0, past which its factor e^(-rho0 Y) is below e^-50, so the
    rule of the longest tail, that of r0 = 1, serves every r0.

    Kept across calls, as _nodes keeps the contour's nodes.  An order and
    its sigmas have one entry per reach (at most 4 x 508 doubles for
    ml_pair's two sigmas, 16 KB); a transport sweep at alpha = 1/2,
    beta = 1 leaves two, at reach 0 and 1.
    """
    delta, r_cut = _ray_intervals(alpha, 1.0)
    ts_nodes, ts_weights = _tanh_sinh(1.0 / 32.0, 3.2)
    if reach:
        gl_nodes, gl_weights = np.polynomial.legendre.leggauss(48)
        gl_nodes = 0.5 * (gl_nodes + 1.0)
        y_left = (1.0 - delta) * ts_nodes
        u = delta * gl_nodes
        # the fold Int_0^1 (f(1 + delta u) - f(1 - delta u)) / u du
        fold_weights = 0.5 * gl_weights / gl_nodes
        y = [y_left, 1.0 + u, 1.0 - u]
        w = [ts_weights * (1.0 - delta) / (y_left - 1.0), fold_weights, -fold_weights]
        if reach == 2:
            span = r_cut - (1.0 + delta)
            y.append(1.0 + delta + span * ts_nodes)
            w.append(ts_weights * span / (y[-1] - 1.0))
        y, w = np.concatenate(y), np.concatenate(w)
        abscissae = y ** (1.0 / alpha)
        c = _cis_pi(alpha)
        shared = w / ((y - _cis_pi(2.0 * alpha)) * (alpha * math.pi))
        rows = []
        for sigma in sigmas:
            t = (
                y ** ((1.0 - sigma) / alpha)
                * (y * _cis_pi(1.0 - sigma).imag - c * _cis_pi(1.0 - sigma + alpha).imag)
                * shared
            )
            rows += [t.real, t.imag]
    else:
        # past r^(1/alpha) = 46 every row carries e^(-r^(1/alpha)) < 1e-20
        inside = (r_cut * ts_nodes) ** (1.0 / alpha) <= 46.0
        abscissae = r_cut * ts_nodes[inside]
        weighted = ts_weights[inside] * r_cut * np.exp(-(abscissae ** (1.0 / alpha))) / (alpha * math.pi)
        rows = []
        for sigma in sigmas:
            g = abscissae ** ((1.0 - sigma) / alpha) * weighted
            rows += [_cis_pi(1.0 - sigma).imag * abscissae * g, _cis_pi(1.0 - sigma + alpha).imag * g]
    rows = np.array(rows)
    # rows of exact zeros (a sine of a multiple of pi) add nothing
    kept = np.flatnonzero(np.any(rows != 0.0, axis=1))
    rows = rows[kept]
    for a in (abscissae, rows, kept):
        a.flags.writeable = False
    return abscissae, rows, kept


def _decay(rho):
    """e^(-rho), flushed to zero below e^-700: numpy's exp is an order of
    magnitude slower on arguments that underflow."""
    return np.exp(-rho, out=np.zeros_like(rho), where=rho < 700.0)


def _ray(alpha, sigmas, r0, rho0, reach, out, ids):
    """E at z = r0 exp(i pi alpha), 0 < alpha < 1, sigma <= 1:

        (1/(2 alpha)) rho0^(1-sigma) e^(i pi (1-sigma)) e^(-rho0)
        + PV Int_0^inf K(r) dr,                      rho0 = r0^(1/alpha),

        K(r) = r^((1-sigma)/alpha) e^(-r^(1/alpha)) (r sin(pi(1-sigma)) - z sin(pi(1-sigma+alpha)))
               / (alpha pi (r - r0) (r - z e^(i pi alpha))).

    The principal value folds the interval of half-width d around r0 onto
    [0, d] (Gauss-Legendre); the rest is taken by tanh-sinh up to
    r^(1/alpha) = 50 (r = r_cut).  r0 and rho0 are 1-d arrays of z that
    reach the same intervals: [0, min(r0 - d, r_cut)] alone (reach 0), the
    fold too (reach 1), or also [r0 + d, r_cut] (reach 2), at the positions
    ids of a sweep (as _contour's); E is written into out[:, ids].

    Each z is a few memoised rows (_ray_rows) times one factor of its own;
    no z has abscissae of its own.  At reach 0 the abscissae are the same
    for every z, and the factor is r0^2 / ((r - r0)(r - r0 e^(2 i pi alpha))),
    formed in y = r / r0 so that no |z| in double range under- or overflows
    it.  At reach >= 1, d is a fixed fraction of r0, so in y = r / r0 the
    abscissae and all but one factor of K are z-free: the factor is
    e^(-rho0 y^(1/alpha)), and r0^p = rho0^(1-sigma) scales the sum.  The
    factors are real (at reach 0, u q and q of (u + i S) q), formed in
    blocks of at most _RAY_CELLS row entries, and each row and z is one
    BLAS dot (np.vecdot), the same whatever the other z of the call.
    """
    abscissae, rows, kept = _ray_rows(alpha, sigmas, reach)
    c, cc = _cis_pi(alpha), _cis_pi(2.0 * alpha)
    block = max(1, _RAY_CELLS // rows.size)
    for start in range(0, r0.size, block):
        b = slice(start, start + block)
        at = b if isinstance(ids, slice) else ids[b]
        r0_b, rho0_b = r0[b, None], rho0[b, None]
        if reach:
            sums = np.zeros((r0_b.size, 2 * len(sigmas)))
            sums[:, kept] = np.vecdot(rows, _decay(rho0_b * abscissae)[:, None, :])
            # the real and imaginary parts of each sigma's sum, as one complex
            out[:, at] = sums.view(complex).T
        else:
            # factor (u + i S) q = (y - C + i S) / ((y - 1)((y - C)^2 + S^2)), C + i S = e^(2 i pi alpha)
            y = abscissae * (1.0 / r0_b)
            u = y - cc.real
            q = 1.0 / ((y - 1.0) * (u * u + cc.imag**2))
            sums = np.zeros((r0_b.size, 2 * len(sigmas)), dtype=complex)
            sums.real[:, kept] = np.vecdot(rows, (u * q)[:, None, :])
            if cc.imag:
                sums.imag[:, kept] = cc.imag * np.vecdot(rows, q[:, None, :])
            # (Sum s1 r g factor / r0 - e^(i pi alpha) Sum s2 g factor) / r0
            out[:, at] = ((sums[:, 0::2] / r0_b - c * sums[:, 1::2]) / r0_b).T
    decay = np.exp(-rho0)
    for k, sigma in enumerate(sigmas):
        power = 1.0 if sigma == 1.0 else rho0 ** (1.0 - sigma)
        # the half residue is 0 where e^(-rho0) is, also where the power overflows
        half = _cis_pi(1.0 - sigma) * (0.5 / alpha * np.where(decay > 0.0, power, 0.0) * decay)
        out[k, ids] = half + (out[k, ids] if reach == 0 or sigma == 1.0 else power * out[k, ids])


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


# the Taylor series takes at most _TERMS terms, to 2^-60 of the largest
_TERMS, _LOG_DROP = 64, 60.0 * math.log(2.0)
# past the radius, on the principal sheet, the series serves rho (1 - cos(theta / alpha)) <= ln 16:
# there Sum |z^n / Gamma(alpha n + sigma)| ~ (1/alpha) rho^(1-sigma) e^rho is at most 16 |residue|
_LOG_16 = math.log(16.0)


def _taylor_radii(alpha, sigma):
    """Per count n = 1 .. _TERMS the largest r where the term n of Sum z^n /
    Gamma(alpha n + sigma), and each later one as Gamma rises (alpha n +
    sigma >= 1.5), is 2^-60 of the largest before it at |z| = r; 0 if Gamma
    may fall past it."""
    # log |1 / Gamma(alpha n + sigma)|, -inf at the poles of Gamma
    logs = [math.log(c) if (c := abs(gamma_reciprocal(alpha * n + sigma))) else -math.inf for n in range(_TERMS + 1)]
    return tuple(math.exp(max((logs[k] - logs[n] - _LOG_DROP) / (n - k) for k in range(n)))
                 if alpha * n + sigma >= 1.5 else 0.0 for n in range(1, _TERMS + 1))


def _taylor(w, coefficients):
    """Sum_n c_n w^n for each row c of coefficients at each w of the 1-d w,
    shape (rows, w.size): per block of _CAUCHY_CELLS entries one matrix of
    powers, then one BLAS dot per row and w, so each value is the same
    whatever the other w."""
    values = np.empty((coefficients.shape[0], w.size), dtype=complex)
    block = _CAUCHY_CELLS // coefficients.shape[1]
    for start in range(0, w.size, block):
        rows = slice(start, start + block)
        powers = np.empty((w[rows].size, coefficients.shape[1]), dtype=complex)
        powers[:, 0] = 1.0
        powers[:, 1:] = w[rows, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        np.vecdot(coefficients[:, None, :], powers, out=values[:, rows])
    return values


class _Constants(NamedTuple):
    """What the orders alone decide (_order_constants)."""

    exp: bool
    ray: bool
    shifted: tuple
    radius: float
    taylor: np.ndarray
    limits: tuple
    one_minus: np.ndarray


@functools.lru_cache(maxsize=64)
def _order_constants(alpha, sigmas):
    """What the orders alone decide, read-only _Constants kept across calls.

    exp: the route exp(z) (alpha and every sigma 1); ray: whether the sigmas
    may take the ray (alpha < 1, every sigma <= 1); shifted: the rows with
    1/Gamma(sigma - alpha) = 0, taken as E_{alpha,sigma-alpha}(z) / z at |z|
    >= 1.  The Taylor series: limits, per count n = 1 .. _TERMS the |z| up
    to which n terms serve, least over sigma = -1 and the sigmas (-1's while
    every sigma is >= -1: no route depends on the other sigmas) and made
    non-decreasing; R = limits[-1]; radius, R below 1; taylor, _TERMS
    coefficients per sigma, of which a sweep sums the fewest columns that
    reach its reach (_sweep).  one_minus: the column 1 - sigma of the
    residue exponents.
    """
    limits = np.min([_taylor_radii(alpha, sigma) for sigma in (-1.0, *sigmas)], axis=0)
    limits = tuple(np.maximum.accumulate(limits).tolist())
    taylor = np.array([[gamma_reciprocal(alpha * n + sigma) for n in range(_TERMS)] for sigma in sigmas], dtype=complex)
    one_minus = 1.0 - np.array(sigmas)[:, None]
    for a in (taylor, one_minus):
        a.flags.writeable = False
    shifted = tuple(k for k, sigma in enumerate(sigmas) if gamma_reciprocal(sigma - alpha) == 0.0)
    return _Constants(alpha == 1.0 and all(sigma == 1.0 for sigma in sigmas), alpha < 1.0 and max(sigmas) <= 1.0,
                      shifted, min(limits[-1], 1.0 - 2.0**-53), taylor, limits, one_minus)


@functools.lru_cache(maxsize=64)
def _residue_row(alpha, sigmas, theta):
    """The column of residue factors e^(i (1 - sigma) theta / alpha) / alpha,
    one entry per sigma: the part of the residues that rho does not change,
    exact where the phase is a multiple of pi/2."""
    row = np.array([[_cis_pi((1.0 - sigma) * (theta / math.pi) / alpha) / alpha] for sigma in sigmas])
    row.flags.writeable = False
    return row


def _sweep(alpha, sigmas, z, m, rho, extremes, theta, rotation):
    """E_{alpha,sigma}(z) for each sigma in sigmas at the z = m e^(i theta)
    of one sweep, theta in [-pi, pi], shape (len(sigmas), z.size), given
    rho = |z|^(1/alpha) and the extremes (min m, max m, min rho, max rho);
    rotation is the poles' direction e^(i |theta| / alpha).

    E is taken at Im z >= 0 and conjugated below the real axis, and its
    imaginary part is zero on the axis.  The sigmas take one route together
    (_order_constants).  What the sweep's argument decides is decided once
    with Python scalars: whether the sweep is the ray (to _RAY_TOL), on the
    principal sheet (the pole s* = rho e^(i theta / alpha) on it or on the
    cut) and right of the cut, and the series' reach (the radius; off the
    ray on the sheet M(theta) where that is larger).  Then, with no
    reduction or power, each z takes its route group: 0 for |z| <= reach,
    1 + the intervals it reaches on the ray, else 4 + the index in _WINDOWS
    of the parabola of its vertex rho cos^2(theta / (2 alpha)) (4: no pole
    right of the cut), plus len(_WINDOWS) for the unshifted rows at |z| < 1
    if a row shifts; by the extremes alone where they share one.  Each
    group is evaluated where it is found, into the one output array: the
    Taylor series (the fewest columns of taylor whose limit reaches the
    reach); exp(z) where alpha and every sigma are 1; _ray at its reach; or
    one _contour call on the group's parabola and rows, with the residues
    e^(s* + (1 - sigma) log rho) times the factor e^(i (1 - sigma) theta /
    alpha) / alpha (_residue_row) where it passes left of s*.

    Past double range rho, a residue or a value turns inf or nan, quietly
    (the caller's np.errstate); the sum of the values (a check per value
    only where it is not finite) refuses a value that is not finite with
    OverflowGuard, naming the first such row and its z as given, after the
    z of rho = inf on the decay side are taken without their residue, 0."""
    lower = math.copysign(1.0, theta) < 0.0
    upper = z.conj() if lower else z
    theta = abs(theta)
    exp, ray, shifted, radius, taylor, limits, one_minus = _order_constants(alpha, sigmas)
    low, high, rho_low, rho_high = extremes
    values = np.empty((len(sigmas), z.size), dtype=complex)
    # for |z| < 1 the half residue is not small against E, and the contour
    # alone is accurate in both components
    ray = ray and abs(theta - math.pi * alpha) <= _RAY_TOL
    # the group of every z, or of each (an array)
    groups = 4
    if not exp:
        reach = radius
        if low <= limits[-1] and not ray and theta < math.pi * alpha:  # no reach exceeds limits[-1]
            fall = 1.0 - math.cos(theta / alpha)
            reach = max(radius, min(limits[-1], (_LOG_16 / fall) ** alpha) if fall else limits[-1])
        if high <= reach:
            groups = 0
        else:
            if theta < math.pi * alpha:
                # often every vertex of a sweep is past the clip, or all share a window
                c2 = math.cos(0.5 * theta / alpha) ** 2
                first = bisect.bisect_right(_EDGE_TUPLE, rho_low * c2)
                if first < _EDGES.size and bisect.bisect_right(_EDGE_TUPLE, rho_high * c2) != first:
                    first = np.searchsorted(_EDGES, rho * c2, side="right")
                groups = 4 + first
            # a contour z at |z| < 1 takes the unshifted rows, in its window's group + len(_WINDOWS)
            near = len(_WINDOWS) if shifted and low < 1.0 else 0
            if ray:
                d, r_cut = _ray_intervals(alpha, m)
                groups = np.where(m >= 1.0, 1 + (m - d < r_cut).astype(int) + (m + d < r_cut), groups + near)
            elif near:
                groups = groups + near if high < 1.0 else np.where(m < 1.0, groups + near, groups)
            if low <= reach:
                groups = np.where(m <= reach, 0, groups)
    if isinstance(groups, int) or groups.min() == groups.max():
        found = [(groups if isinstance(groups, int) else int(groups[0]), slice(None))]
    else:
        found = [(g, np.flatnonzero(groups == g)) for g in np.flatnonzero(np.bincount(groups)).tolist()]
    for group, ids in found:
        if group == 0:
            # the fewest columns whose limit reaches the reach
            values[:, ids] = _taylor(upper[ids], taylor[:, : 1 + bisect.bisect_left(limits, reach)])
        elif exp:
            values[:, ids] = np.exp(upper[ids])
        elif group < 4:
            _ray(alpha, sigmas, m[ids], rho[ids], group - 1, values, ids)
        else:
            unshifted, window = divmod(group - 4, len(_WINDOWS))
            parabola, residue = _WINDOWS[window]
            exponents = factor = None
            if residue:
                # e^(s* + (1 - sigma) log rho) times the factor: added to Im s* = rho the phase would round away
                exponents = rho[ids] * rotation + one_minus * np.log(rho[ids])
                factor = _residue_row(alpha, sigmas, theta)
            _contour(alpha, sigmas, upper, ids, parabola, exponents, factor, values, () if unshifted else shifted)
    if theta in (0.0, math.pi):
        values.imag = 0.0
    total = np.add.reduce(values, axis=None)
    if not cmath.isfinite(total) and not (finite := np.isfinite(values)).all():
        if not exp and theta < math.pi * alpha and rotation.real < 0.0:
            # a decaying pole past double range: its residue e^(s*), Re s* =
            # -inf, is 0, not the nan of its exponent inf - inf
            gone = np.flatnonzero(rho == math.inf)
            _contour(alpha, sigmas, upper, gone, _WINDOWS[-1][0], None, None, values, shifted)
            finite = np.isfinite(values)
        if not finite.all():
            k, bad = divmod(int(np.argmin(finite)), z.size)
            raise OverflowGuard(f"E_{{{alpha},{sigmas[k]}}}({complex(z[bad])!r}) exceeds double range")
    return np.conjugate(values, out=values) if lower else values


def _ends(a):
    """(min, max) of a nonempty array, with no reduction for one element."""
    return (a.item(),) * 2 if a.size == 1 else (float(a.min()), float(a.max()))


def _roots(alpha, lam):
    """The read-only g = lam^(1/alpha) and (min lam, max lam, min g, max g)
    for _ml_values, g's from g: a power of lam's may differ in the last bit."""
    with np.errstate(over="ignore"):
        g = lam ** (1.0 / alpha)
    g.flags.writeable = False
    return g, _ends(lam) + _ends(g)


def _ml_values(alpha, sigmas, times, lam, beta, roots=None):
    """E_{alpha,sigma}(z) for each sigma at z = (-i)^beta t^alpha lam, times
    t >= 0, lam >= 0, shape (len(sigmas), len(times)) + lam.shape, by one
    _sweep (t = 1: the moduli lam).  rho = t g, g from roots = _roots(alpha,
    lam); a float product keeps the order of nonnegative factors, so the
    extremes of m = t^alpha lam and rho are their factors', bit for bit.
    The poles' direction (-i)^(-|beta|/alpha), beta taken into [-2, 2], is
    exact where it is a power of i: on beta = alpha, cos(pi / 2) = 6.1e-17
    of e^(i theta / alpha) would put Re s* = 6.1e-17 rho where |e^(s*)| = 1."""
    lam, times = np.asarray(lam, dtype=float), np.asarray(times, dtype=float)
    shape = (len(sigmas), times.size) + lam.shape
    if not (times.size and lam.size):
        return np.empty(shape, dtype=complex)
    g, (lam_low, lam_high, g_low, g_high) = roots or _roots(alpha, lam)
    powers = times**alpha
    (p_low, p_high), (t_low, t_high) = _ends(powers), _ends(times)
    u, rotation = neg_i_power(beta), neg_i_power(-abs(math.remainder(beta, 4.0)) / alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        if times.size == 1:
            m, rho = lam.ravel() * p_low, g.ravel() * t_low
        else:
            m, rho = np.multiply.outer(powers, lam).ravel(), np.multiply.outer(times, g).ravel()
        extremes = p_low * lam_low, p_high * lam_high, t_low * g_low, t_high * g_high
        return _sweep(alpha, sigmas, m * u, m, rho, extremes, math.atan2(u.imag, u.real), rotation).reshape(shape)


def _by_argument(z):
    """The sweeps of the 1-d array z: (ids, |z[ids]|, theta) for each
    distinct argument theta = arg z in [-pi, pi], from numpy's hypot and
    arctan2, told apart by their bits, so that -0.0 (below the axis) is
    not 0.0."""
    m = np.hypot(z.real, z.imag)
    theta = np.arctan2(z.imag, z.real)
    bits = theta.view(np.int64)
    order = np.argsort(bits, kind="stable")
    for ids in np.split(order, np.flatnonzero(np.diff(bits[order])) + 1):
        if ids.size:
            yield ids, m[ids], float(theta[ids[0]])


def ml_eval(params: MLParams, z: complex) -> complex:
    """Evaluate E_{alpha,sigma}(z) anywhere in the complex plane, for the
    0 < alpha <= 1 and sigma <= 1 + alpha of MLParams.

    Relative accuracy 1e-12 (see the module docstring for the method),
    except on the contour for sigma <= -1, where E stays small against its
    absolute error: 3.8e-12 at sigma = -1, alpha = 0.2 below |z| = 1, 1e-10
    at sigma = -3 near |z| = 1 off the principal sheet; and 1.5e-12 where
    the shifted rows start, |z| = 1 to 1.05 at alpha = sigma = 0.01.  The
    series past its radius, |z| <= M(|arg z|), was within 1.1e-14 of the
    40-digit mpmath series on 2 688 points (alpha 0.4 to 1, sigma in
    {alpha, 1, 0, -1}).  Raises DomainError for a z with a NaN or infinite
    component and OverflowGuard where E leaves double range.  A one-element
    sweep of the array router, with |z| and arg z taken as _by_argument
    takes them, so it equals _ml_at at the same z and sigma bit for bit.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"E_{{{params.alpha},{params.sigma}}} needs a finite z, got {z!r}")
    alpha, z = params.alpha, np.array([z])
    m, theta = np.hypot(z.real, z.imag), float(np.arctan2(z.imag, z.real)[0])
    with np.errstate(over="ignore", invalid="ignore"):
        rho = m ** (1.0 / alpha)
        return _sweep(alpha, (params.sigma,), z, m, rho, _ends(m) + _ends(rho), theta, cmath.rect(1.0, abs(theta) / alpha)).item()


def _ml_at(alpha, sigmas, z):
    """E_{alpha,sigma}(z) for each sigma in sigmas at every element of the
    array z, as an array of shape (len(sigmas),) + z.shape: the z split by
    argument into sweeps (_by_argument); DomainError for a z with a NaN or
    infinite component."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    if not np.isfinite(flat).all():
        bad = complex(flat[np.argmin(np.isfinite(flat))])
        raise DomainError(f"E_{{{alpha},{sigmas[0]}}} needs a finite z, got {bad!r}")
    values = np.empty((len(sigmas), flat.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for ids, m, theta in _by_argument(flat):
            rho = m ** (1.0 / alpha)
            values[:, ids] = _sweep(alpha, sigmas, flat[ids], m, rho, _ends(m) + _ends(rho), theta, cmath.rect(1.0, abs(theta) / alpha))
    return values.reshape((len(sigmas),) + z.shape)


def ml_pair(alpha: float, z):
    """(E_{alpha,alpha}(z), E_{alpha,1}(z)) at every element of the array z.

    The two functions of the transport integrands, from one evaluation:
    for these sigmas the parabola depends on z alone, so each parabola's
    nodes serve both.  z may mix arguments; the z of each argument are one
    sweep of the array router (_ml_at).  Equals ml_eval element by element,
    bit for bit, with the same errors.  Its poles' direction and rho are the
    rounded arg z's and |z|^(1/alpha), as ml_eval's; the library's sweeps
    (_ml_values) take the direction exactly and rho = t lambda^(1/alpha):
    on the beta = alpha rays |E| differs from theirs by up to 3e-16 |s*|
    relative.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"ml_pair requires alpha in (0, 1], got {alpha!r}")
    values = _ml_at(alpha, (alpha, 1.0), z)
    # arrays of z's shape, 0-d for a scalar z
    return values[0, ...], values[1, ...]


def ml_deriv(alpha: float, z: complex) -> complex:
    """d/dz E_{alpha,1}(z) = (1/alpha) E_{alpha,alpha}(z) for alpha in (0, 1];
    OverflowGuard where it leaves double range."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"ml_deriv requires alpha in (0, 1], got {alpha!r}")
    value = ml_eval(MLParams(alpha, alpha), z) / alpha
    if not cmath.isfinite(value):
        raise OverflowGuard(f"E_{{{alpha},{alpha}}}({complex(z)!r}) / alpha exceeds double range")
    return value
