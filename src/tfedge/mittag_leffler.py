"""Two-parameter Mittag-Leffler function on the complex plane.

    E_{alpha,sigma}(z) = sum_{n>=0} z^n / Gamma(alpha n + sigma)

One float64 evaluator for 0 < alpha <= 1: E is the inverse Laplace
transform at t = 1 of s^(alpha-sigma) / (s^alpha - z),

    E_{alpha,sigma}(z) = (1/2 pi i) Int_C e^s s^(alpha-sigma) / (s^alpha - z) ds
                         + (1/alpha) s*^(1-sigma) e^(s*)  if the pole s* is right of C,

taken by the trapezoidal rule on the optimal parabolic contour
C: s = mu (1 + i u)^2 of Garrappa (SIAM J. Numer. Anal. 53 (2015)
1350-1369; Weideman and Trefethen, Math. Comp. 76 (2007) 1341-1356 for the
parabola).  The contour parameters (mu, h, N) come from the singularities:
the branch point s = 0 and the pole s* = z^(1/alpha), which lies on the
principal sheet while |arg z| <= pi alpha.  The evaluator has one
accuracy, 1e-12 relative to |E| (_LOG_EPS).

Three cases take exact routes:

- z = 0 returns 1/Gamma(sigma);
- alpha = sigma = 1 returns exp(z), which is exponentially small where the
  contour sum is O(1);
- on the ray |arg z| = pi alpha (for |z| >= 1, sigma <= 1) the pole sits on
  the branch cut, and E is half its residue plus the principal value of the
  real-line integral of Gorenflo, Loutchko and Luchko (Fract. Calc. Appl.
  Anal. 5 (2002)), taken at |z| e^(i pi alpha).  The sines and cosines of
  multiples of pi/2 are exact there, so at alpha = 1/2, sigma in {1/2, 1}
  one component of E is the half residue alone: Re E_{1/2,1}(-iy) =
  exp(-y^2) to full relative accuracy.  Each z is a few rows kept across
  calls (_ray_rows) times one factor of its own.

E is evaluated at Im z >= 0 and conjugated below the real axis, so
E(conj z) == conj E(z) bit for bit.

ml_eval takes one z and routes it with Python scalars (_route).
_ml_values, the array entry of the library's sweeps, takes the
z = m (-i)^beta of one ray from the origin as moduli m and the power beta.
What the ray's argument alone decides (the ray, the sheet, the
conjugation, the pole's angle) is kept across calls (_sweep_constants),
and per z only the pole's modulus, its vertex and window, the ray's reach
and the residue exponents are formed (_sweep_routes).  ml_pair takes any
array, split by argument into such sweeps (_ml_at).  The numerics run once
per route and per parabola, each route writing into the one output array,
so a time sample over a quadrature table is one quotient of two weight
rows by the denominators s_j^alpha - z_i of a Cauchy matrix, summed.
Within arrays of two or more z the E at a z does not depend on its
position or on the other z, bit for bit; a lone z agrees with them to the
rounding of its pole.

Poles share parabolas: a parabola built for a pole at vertex phi stays
valid for every pole farther from it on the same side, so while the branch
point has strength zero (sigma <= 1 + alpha) the pole vertices fall into
windows with one parabola each (_vertex_key).  The parabolas, their nodes
(_parabola, _nodes) and the ray's rows are kept across calls.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, OverflowGuard

__all__ = [
    "MLParams",
    "gamma_reciprocal",
    "neg_i_power",
    "ml_eval",
    "ml_pair",
    "ml_deriv",
]

# exp() overflows past ~709.78; leave headroom for the algebraic prefactor.
_EXP_ARG_LIMIT = 705.0

# natural log of the float64 unit roundoff
_LOG_UNIT = math.log(np.finfo(float).eps)

# most trapezoidal nodes on either side of the contour's vertex
_N_MAX = 200
# i k for the node indices k = -_N_MAX .. _N_MAX
_I_STEPS = 1j * np.arange(-_N_MAX, _N_MAX + 1, dtype=float)

# Garrappa's tolerance bounds the error against the size of the integrand on
# the contour, which exceeds |E| where E is algebraically small; the error
# relative to |E| was measured at up to 230 times the tolerance, so for E to
# 1e-12 relative the contour runs at 1e-12 / 1000.  Below that roundoff
# leaves no admissible parabola.
_LOG_EPS = math.log(1e-3 * 1e-12)
# _region_below clips sqrt(phi) at 2 sqrt(_LOG_EPS - log u), so every pole
# vertex at or beyond this clip (about 6) has the parabola of the clip itself
_CLIP = 4.0 * (_LOG_EPS - _LOG_UNIT)

# entries per block of a parabola's Cauchy matrix: 16 z at the most nodes,
# 0.1 MB of complex quotients per sigma
_CAUCHY_CELLS = 16 * (2 * _N_MAX + 1)

# |arg z| within this of pi*alpha counts as the ray
_RAY_TOL = 1e-14
# beyond rho = r^(1/alpha) = 50 the real-line integrand is below e^-50
_RHO_CUT = 50.0


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, sigma) of the Mittag-Leffler function."""

    alpha: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(
                f"MLParams.alpha must lie in (0, 1], got {self.alpha!r}"
            )
        if not np.isfinite(self.sigma):
            raise DomainError(f"MLParams.sigma must be finite, got {self.sigma!r}")


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


def _region_below(phi_pole, p0):
    """(mu, h, N) for a parabola between the branch point s = 0, of strength
    p0, and the pole at phi_pole; None if the roundoff allowance cannot fit
    between them.  Garrappa's OptimalParam_RB with its lower singularity at 0."""
    f_max = math.exp(_LOG_EPS - _LOG_UNIT)
    sq_pole = min(math.sqrt(phi_pole), 2.0 * math.sqrt(_LOG_EPS - _LOG_UNIT))
    if p0 < 1e-14:
        f_min = 1.01
        if f_min >= f_max:
            return None
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        sqb_0 = 0.0
        sqb_pole = 2.0 * sq_pole / (2.0 + 1.0 / f_bar)
    else:
        f_min = 1.01 * sq_pole / sq_pole ** max(p0, 1.0)
        if f_min >= f_max:
            return None
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / p0)
        w = -phi_pole / _LOG_EPS
        den = 2.0 + w - (1.0 + w) * fp + 1.0 / f_bar
        sqb_0 = fp * sq_pole / den
        sqb_pole = (2.0 + w - (1.0 + w) * fp) * sq_pole / den
    # the tolerance left to the discretisation once roundoff has its share
    log_eps_bar = _LOG_EPS - math.log(f_bar)
    w = -sqb_pole * sqb_pole / log_eps_bar
    mu = (((1.0 + w) * sqb_0 + sqb_pole) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_eps_bar * (sqb_pole - sqb_0) / ((1.0 + w) * sqb_0 + sqb_pole)
    return mu, h, math.ceil(math.sqrt(1.0 - log_eps_bar / mu) / h)


def _region_beyond(phi_j, p_j):
    """(mu, h, N) for a parabola right of the last singularity phi_j, of
    strength p_j; None if roundoff rules the region out.  Garrappa's
    OptimalParam_RU, which steers the error factor into (1, 10), aiming at 5."""
    sq_phi = math.sqrt(phi_j)
    phib = 1.01 * phi_j if phi_j > 0.0 else 0.01
    sqb = math.sqrt(phib)
    while True:
        le = _LOG_EPS / phib
        n = math.ceil(phib / math.pi * (1.0 - 1.5 * le + math.sqrt(1.0 - 2.0 * le)))
        a = math.pi * n / phib
        sq_mu = sqb * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        fbar = ((sqb - sq_phi) / sq_mu) ** (-p_j)
        if p_j < 1e-14 or 1.0 < fbar < 10.0:
            break
        sqb = 5.0 ** (-1.0 / p_j) * sq_mu + sq_phi
        phib = sqb * sqb
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    threshold = _LOG_EPS - _LOG_UNIT
    if mu > threshold:
        q = 0.0 if p_j < 1e-14 else 5.0 ** (-1.0 / p_j) * math.sqrt(mu)
        if (q + sq_phi) ** 2 >= threshold:
            return None
        w = math.sqrt(_LOG_UNIT / (_LOG_UNIT - _LOG_EPS))
        u = math.sqrt(-((q + sq_phi) ** 2) / _LOG_UNIT)
        mu = threshold
        n = math.ceil(w * _LOG_EPS / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return mu, h, n


@functools.lru_cache(maxsize=64)
def _parabola(key, p0):
    """((mu, h, N), residue) of the parabola with the fewest nodes for the
    pole vertices of the window key, residue telling whether it passes left
    of them; None if no parabola meets _LOG_EPS within _N_MAX nodes per side.

    The key is the routers': 0 for no pole on the principal sheet; _CLIP, or
    with a branch point of strength p0 > 0 any key, for the pole at vertex
    key alone; any other key for the octave [key, 2 key) of vertices
    (_vertex_key).  A parabola below the window's lower end leaves each of
    its poles to its right, farther away than the vertex it was built for,
    and one beyond its upper end to its left.  Kept across calls, as _nodes keeps its nodes: perfbench's scalar-ml
    round uses 24 parabolas, and keeping them lifts its samples_per_s from
    14 300 to 15 500 /s (median of 10 alternating 15 s pairs, 10 of 10
    better, 2-core Xeon).
    """
    if key == 0.0:
        par, residue = _region_beyond(0.0, p0), False
    else:
        par, residue = _region_below(key, p0), True
        hi = key if key == _CLIP or p0 > 0.0 else 2.0 * key
        if hi < _LOG_EPS - _LOG_UNIT:
            right = _region_beyond(hi, 1.0)
            if right is not None and (par is None or right[2] < par[2]):
                par, residue = right, False
    if par is None or par[2] > _N_MAX:
        return None
    return par, residue


@functools.lru_cache(maxsize=64)
def _nodes(alpha, sigmas, parabola):
    """The nodes s_j^alpha of the parabola (mu, h, N) and, one row for each
    sigma, the weights e^s s^(alpha-sigma) ds / (2 pi i) of the trapezoidal
    rule there, as read-only arrays.

    The parabolas of a call are a small fixed set
    per order (one per window of pole vertices), so the same few serve call
    after call: `tfedge verify` and the single calls of perfbench's
    scalar-ml round leave 55 entries (0.27 MB; an entry is at most 401
    complex nodes and one weight row per sigma), and a sweep over a
    quadrature table leaves one.
    """
    mu, h, n = parabola
    # s = mu (1 + iu)^2 at u = h k, with trapezoid factor h (ds/du) / (2 pi i) = mu h (1 + iu) / pi
    v = h * _I_STEPS[_N_MAX - n : _N_MAX + n + 1] + 1.0
    s = mu * v**2
    log_s = np.log(s)
    s_alpha = np.exp(alpha * log_s)
    scale = v * (mu * h / math.pi)
    weights = np.array(
        [np.exp(s if sigma == alpha else s + (alpha - sigma) * log_s) * scale for sigma in sigmas]
    )
    for a in (s_alpha, weights):
        a.flags.writeable = False
    return s_alpha, weights


def _contour(alpha, sigmas, z, ids, parabola, residue_exponents, out):
    """E_{alpha,sigma}(z), each sigma, by the trapezoidal rule on one
    parabola (mu, h, N) shared by the z[ids] of the 1-d array z (ids a slice
    taking every z, or indices), written into out[:, ids].  residue_exponents
    is None, or the exponents of the residues (1/alpha) s*^(1-sigma) e^(s*)
    of poles s* right of the parabola, shape (len(sigmas), z[ids].size).

    The nodes and weights come from the memo _nodes, and every sigma sums
    its weights against the Cauchy matrix 1/(s_j^alpha - z_i) in one
    quotient, in blocks of _CAUCHY_CELLS entries per sigma.  Nodes run along
    the rows, one contiguous row per z and sigma, which numpy sums pairwise
    in the same order whatever the other z of the call, so a z's E does not
    depend on which z share its parabola.
    """
    s_alpha, weights = _nodes(alpha, sigmas, parabola)
    z = z[ids]
    block = _CAUCHY_CELLS // s_alpha.size
    for start in range(0, z.size, block):
        rows = slice(start, start + block)
        # the Cauchy matrix of these z, as its denominators s_j^alpha - z_i
        gaps = s_alpha - z[rows, None]
        out[:, rows if isinstance(ids, slice) else ids[rows]] = np.add.reduce(weights[:, None, :] / gaps, axis=2)
    if residue_exponents is not None:
        out[:, ids] += np.exp(residue_exponents)


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


_TS_NODES, _TS_WEIGHTS = _tanh_sinh(1.0 / 32.0, 3.2)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS

# entries per block of the ray's products of per-z factors with memoised
# rows, at most 0.26 MB a temporary
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

    reach 0: the abscissae r = r_cut x of tanh-sinh on [0, r_cut], and per
    sigma the rows s1 r g and s2 g, where g = w r^p e^(-r^(1/alpha)) /
    (alpha pi); of the 206 abscissae those with every row's entry below
    1e-20 of its largest are dropped, 66 for ml_pair's sigmas at alpha = 1/2.

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
    if reach:
        y_left = (1.0 - delta) * _TS_NODES
        u = delta * _GL_NODES
        # the fold Int_0^1 (f(1 + delta u) - f(1 - delta u)) / u du
        fold_weights = _GL_WEIGHTS / _GL_NODES
        y = [y_left, 1.0 + u, 1.0 - u]
        w = [_TS_WEIGHTS * (1.0 - delta) / (y_left - 1.0), fold_weights, -fold_weights]
        if reach == 2:
            span = r_cut - (1.0 + delta)
            y.append(1.0 + delta + span * _TS_NODES)
            w.append(_TS_WEIGHTS * span / (y[-1] - 1.0))
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
        abscissae = r_cut * _TS_NODES
        weighted = _TS_WEIGHTS * r_cut * np.exp(-(abscissae ** (1.0 / alpha))) / (alpha * math.pi)
        rows = []
        for sigma in sigmas:
            g = abscissae ** ((1.0 - sigma) / alpha) * weighted
            rows += [_cis_pi(1.0 - sigma).imag * abscissae * g, _cis_pi(1.0 - sigma + alpha).imag * g]
    rows = np.array(rows)
    # rows of exact zeros (a sine of a multiple of pi) add nothing
    kept = np.flatnonzero(np.any(rows != 0.0, axis=1))
    rows = rows[kept]
    if not reach:
        # nor do abscissae below 1e-20 of every row's largest entry, as the
        # factor of a z varies by at most 4 / delta^2 over the abscissae
        size = np.abs(rows)
        big = np.any(size >= 1e-20 * size.max(axis=1, keepdims=True), axis=0)
        abscissae, rows = abscissae[big], np.ascontiguousarray(rows[:, big])
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
    factors are formed in blocks of z, at most _RAY_CELLS entries a product,
    and each z's sums run along contiguous rows, in the same order whatever
    the other z of the call.
    """
    abscissae, rows, kept = _ray_rows(alpha, sigmas, reach)
    c, cc = _cis_pi(alpha), _cis_pi(2.0 * alpha)
    block = max(1, _RAY_CELLS // rows.size)
    for start in range(0, r0.size, block):
        b = slice(start, start + block)
        at = b if isinstance(ids, slice) else ids[b]
        r0_b, rho0_b = r0[b, None], rho0[b, None]
        if reach:
            factor = _decay(rho0_b * abscissae)
        else:
            # (y - C + i S) / ((y - 1)((y - C)^2 + S^2)), C + i S = e^(2 i pi alpha)
            y = abscissae * (1.0 / r0_b)
            u = y - cc.real
            q = 1.0 / ((y - 1.0) * (u * u + cc.imag**2))
            factor = np.empty(y.shape, dtype=complex)
            np.multiply(u, q, out=factor.real)
            np.multiply(cc.imag, q, out=factor.imag)
        sums = np.zeros((r0_b.size, 2 * len(sigmas)), dtype=factor.dtype)
        sums[:, kept] = np.add.reduce(factor[:, None, :] * rows, axis=2)
        if reach:
            # the real and imaginary parts of each sigma's sum, as one complex
            out[:, at] = sums.view(complex).T
        else:
            # (Sum s1 r g factor / r0 - e^(i pi alpha) Sum s2 g factor) / r0
            out[:, at] = ((sums[:, 0::2] / r0_b - c * sums[:, 1::2]) / r0_b).T
    for k, sigma in enumerate(sigmas):
        power = rho0 ** (1.0 - sigma)
        half = _cis_pi(1.0 - sigma) * (0.5 / alpha * power * np.exp(-rho0))
        out[k, ids] = half + (out[k, ids] if reach == 0 else power * out[k, ids])


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


# the routes of _route
_ZERO, _EXP, _RAY, _CONTOUR = "zero", "exp", "ray", "contour"


def _vertex_key(phi):
    """The window key of _parabola for the pole vertex phi > 0 when the
    branch point at s = 0 has strength zero: _CLIP at or past the clip,
    whose own parabola serves every such vertex, and below it the lower end
    lo of phi's octave [lo, 2 lo) = [clip 2^-(j+1), clip 2^-j)."""
    if phi >= _CLIP:
        return _CLIP
    lo = math.ldexp(_CLIP, math.frexp(phi / _CLIP)[1] - 1)
    # phi / clip rounded up onto a power of two
    return 0.5 * lo if lo > phi else lo


def _route(alpha, sigmas, zi):
    """How E is taken at one z (Im z >= 0), in the format of _sweep_routes:
    a list of one (route, ids, data), ids taking the whole call and data the
    one-column rows of:

    - (_ZERO, None), no data: z = 0, 1/Gamma(sigma);
    - (_EXP, None), no data: alpha = 1 and every sigma = 1, exp(z);
    - (_RAY, reach), |z| and |z|^(1/alpha): the ray |arg z| = pi alpha, over
      the intervals of _ray that reach names;
    - (_CONTOUR, parabola), None or the residue's exponents
      s* + (1 - sigma) log s* - log alpha, one per sigma: the parabola
      ((mu, h, N), residue) of _parabola, passing left of the pole s* if so.

    The sigmas take a route together (the ray when every sigma is <= 1),
    and the strongest branch point among them sets the parabola; for
    sigma <= 1 + alpha it has strength zero, and the pole vertices share
    parabolas by the windows of _vertex_key, otherwise each vertex has its
    own.
    """
    whole = slice(None)
    if zi == 0:
        return [((_ZERO, None), whole, None)]
    if alpha == 1.0 and all(sigma == 1.0 for sigma in sigmas):
        if zi.real > _EXP_ARG_LIMIT:
            raise OverflowGuard(f"E_{{1,1}}({zi!r}) = exp(z) exceeds double range")
        return [((_EXP, None), whole, None)]
    r = abs(zi)
    theta = math.atan2(zi.imag, zi.real)
    p0 = _branch_strength(alpha, sigmas)
    # the pole s* and its window key; 0: no pole right of the cut
    pole, key = None, 0.0
    try:
        # for |z| < 1 the half residue is not small against E, and the
        # contour alone is accurate in both components
        if alpha < 1.0 and max(sigmas) <= 1.0 and r >= 1.0 and abs(theta - math.pi * alpha) <= _RAY_TOL:
            d, r_cut = _ray_intervals(alpha, r)
            # int(): with a numpy alpha the comparisons are numpy bools, whose sum is their "or"
            reach = int(r - d < r_cut) + int(r + d < r_cut)
            return [((_RAY, reach), whole, np.array([[r], [r ** (1.0 / alpha)]]))]
        # for alpha <= 1 the only pole on the principal sheet is
        # s* = z^(1/alpha), there while arg z <= pi alpha.  phi(s) =
        # (Re s + |s|)/2 is the vertex of the parabola through s; a pole on
        # the cut (phi = 0) is left of all.
        if theta <= math.pi * alpha:
            pole = cmath.rect(r ** (1.0 / alpha), theta / alpha)
            phi = 0.5 * (pole.real + abs(pole))
            if phi > 1e-15:
                key = phi if p0 > 0.0 else _vertex_key(phi)
    except OverflowError:
        raise OverflowGuard(
            f"E_{{{alpha},{sigmas[0]}}}({zi!r}): |z|^(1/alpha) exceeds double range"
        ) from None
    parabola = _parabola(key, p0)
    if parabola is None:
        _no_parabola(alpha, sigmas, zi)
    if not parabola[1]:
        return [((_CONTOUR, parabola), whole, None)]
    log_pole = cmath.log(pole)
    exponents = []
    for sigma in sigmas:
        w = pole + (1.0 - sigma) * log_pole
        if w.real > _EXP_ARG_LIMIT:
            _residue_overflow(alpha, sigma, zi, pole)
        exponents.append([w - math.log(alpha)])
    return [((_CONTOUR, parabola), whole, np.array(exponents))]


def _branch_strength(alpha, sigmas):
    """Strength p0 of the branch point s = 0 of the strongest sigma: zero
    while every sigma <= 1 + alpha, and below 1e-14, which the parabolas of
    _region_below and _region_beyond take for zero."""
    p0 = -2.0 * (alpha - max(sigmas) + 1.0)
    return p0 if p0 >= 1e-14 else 0.0


def _no_parabola(alpha, sigmas, zi):
    raise NonConvergence(
        f"E_{{{alpha},{sigmas[0]}}}({zi!r}): no parabola meets "
        f"eps={math.exp(_LOG_EPS):g} with at most {_N_MAX} nodes per side"
    )


def _residue_overflow(alpha, sigma, zi, pole):
    raise OverflowGuard(
        f"E_{{{alpha},{sigma}}}({zi!r}) exceeds double range "
        f"(Re z^(1/alpha) = {pole.real:.1f})"
    )


@functools.lru_cache(maxsize=64)
def _sweep_constants(alpha, sigmas, theta):
    """The z-free part of _sweep_routes at the argument theta in [0, pi], a
    read-only tuple kept across calls: the exp route, the ray, the pole
    s* = rho e^(i theta / alpha) on the principal sheet (on the cut at
    equality) and right of the cut; p0; cos^2(theta / (2 alpha)), from rho
    to the pole vertex; theta / alpha and e^(i theta / alpha); and the
    column 1 - sigma and log alpha of the residue exponents."""
    exp = alpha == 1.0 and all(sigma == 1.0 for sigma in sigmas)
    # for |z| < 1 the contour alone is accurate in both components (_route)
    ray = alpha < 1.0 and max(sigmas) <= 1.0 and abs(theta - math.pi * alpha) <= _RAY_TOL
    one_minus = 1.0 - np.array(sigmas)[:, None]
    one_minus.flags.writeable = False
    return (exp, ray, not exp and (ray or theta <= math.pi * alpha), theta < math.pi * alpha,
            _branch_strength(alpha, sigmas), math.cos(0.5 * theta / alpha) ** 2, theta / alpha,
            cmath.rect(1.0, theta / alpha), one_minus, math.log(alpha))


def _sweep_routes(alpha, sigmas, z, m, theta):
    """The routes of _route for the z = m e^(i theta) of one sweep: the 1-d
    array z (Im z >= 0), their moduli m and their one argument theta in
    [0, pi].  A list of (route, ids, data): ids index the z that take the
    route, and data holds their data of _route as rows.

    What theta alone decides comes from the memo _sweep_constants.  Per z
    there are elementwise whole-array steps only: rho = m^(1/alpha); the
    pole vertex (Re s* + |s*|) / 2 = rho cos^2(theta / (2 alpha)) and its
    window key of _vertex_key, through np.frexp and np.ldexp (with p0 > 0
    each vertex is its own window); the ray's reach; and the residue
    exponents.  The OverflowGuard checks are _route's.
    """
    if m.size == 0:
        return []
    exp, ray, sheet, inside, p0, cos2, angle, rotation, one_minus, log_alpha = _sweep_constants(
        alpha, sigmas, theta
    )
    # the group of every z, or of each: -2 - reach on the ray, -1 for z = 0,
    # else the window key of _parabola, 0 for no pole right of the cut
    keys = 0.0
    if exp:
        over = z.real > _EXP_ARG_LIMIT
        if over.any():
            raise OverflowGuard(f"E_{{1,1}}({complex(z[over][0])!r}) = exp(z) exceeds double range")
    elif sheet:
        # Python's pow raises, as in _route, if the largest rho = m^(1/alpha) leaves double range
        try:
            float(np.maximum.reduce(m)) ** (1.0 / alpha)
        except OverflowError:
            with np.errstate(over="ignore"):
                first = np.argmax(m ** (1.0 / alpha))
            raise OverflowGuard(
                f"E_{{{alpha},{sigmas[0]}}}({complex(z[first])!r}): |z|^(1/alpha) exceeds double range"
            ) from None
        rho = m ** (1.0 / alpha)
        if inside:
            phi = rho * cos2
            if p0 > 0.0:
                keys = np.where(phi > 1e-15, phi, 0.0)
            elif np.minimum.reduce(phi) < _CLIP:
                lo = np.ldexp(_CLIP, np.frexp(phi / _CLIP)[1] - 1)
                lo = np.where(phi >= _CLIP, _CLIP, np.where(lo > phi, 0.5 * lo, lo))
                # a pole with phi <= 1e-15 is left of every parabola, as in _route
                keys = np.where(phi > 1e-15, lo, 0.0)
            else:
                keys = _CLIP
        if ray:
            d, r_cut = _ray_intervals(alpha, m)
            keys = np.where(m >= 1.0, -2.0 - ((m - d < r_cut).astype(int) + (m + d < r_cut)), keys)
    # z = 0 has a route of its own; a pole vertex past the clip has m > 0
    if (isinstance(keys, np.ndarray) or keys != _CLIP) and np.minimum.reduce(m) == 0.0:
        keys = np.where(m == 0.0, -1.0, keys)
    if isinstance(keys, float) or keys.min() == keys.max():
        windows = [(keys if isinstance(keys, float) else keys[0], slice(None))]
    else:
        windows = [(key, np.flatnonzero(keys == key)) for key in np.unique(keys)]
    groups = []
    for key, ids in windows:
        key = float(key)
        if key == -1.0:
            groups.append(((_ZERO, None), ids, None))
        elif exp:
            groups.append(((_EXP, None), ids, None))
        elif key < -1.0:
            groups.append(((_RAY, int(-2.0 - key)), ids, np.array([m[ids], rho[ids]])))
        else:
            parabola = _parabola(key, p0)
            if parabola is None:
                _no_parabola(alpha, sigmas, complex(z[ids][0]))
            exponents = None
            if parabola[1]:
                # the pole s* and one row of exponents per sigma
                pole = rho[ids] * rotation
                exponents = one_minus * (np.log(rho[ids]) + 1j * angle)
                exponents += pole
                if np.maximum.reduce(exponents.real, axis=None) > _EXP_ARG_LIMIT:
                    k, i = np.unravel_index(np.argmax(exponents.real), exponents.shape)
                    _residue_overflow(alpha, sigmas[k], complex(z[ids][i]), pole[i])
                exponents -= log_alpha
            groups.append(((_CONTOUR, parabola), ids, exponents))
    return groups


def _evaluate(alpha, sigmas, z, routes, out):
    """E_{alpha,sigma}(z) for each sigma in sigmas at each z of the 1-d array
    z (Im z >= 0) along the routes of _route or _sweep_routes, written into
    out, shape (len(sigmas), z.size), which it returns.  The numerics run
    once per route over all the z that take it, one Cauchy matrix per
    parabola, and each route writes its z's values in place."""
    for (kind, detail), ids, data in routes:
        if kind == _ZERO:
            out[:, ids] = [[gamma_reciprocal(sigma)] for sigma in sigmas]
        elif kind == _EXP:
            out[:, ids] = np.exp(z[ids])
        elif kind == _RAY:
            _ray(alpha, sigmas, data[0], data[1], detail, out, ids)
        else:
            _contour(alpha, sigmas, z, ids, detail[0], data, out)
    return out


def _sweep(alpha, sigmas, z, m, theta):
    """E_{alpha,sigma}(z) for each sigma in sigmas at the z = m e^(i theta)
    of one sweep, theta in [-pi, pi], shape (len(sigmas), z.size).  E is
    taken at Im z >= 0 and conjugated below the real axis, its imaginary
    part is zero on the axis, all decided once for the sweep, and a value
    outside double range raises OverflowGuard: one reduction checks every
    value, and only a failed check looks for the z."""
    lower = math.copysign(1.0, theta) < 0.0
    upper = z.conj() if lower else z
    values = np.empty((len(sigmas), z.size), dtype=complex)
    _evaluate(alpha, sigmas, upper, _sweep_routes(alpha, sigmas, upper, m, abs(theta)), values)
    if abs(theta) in (0.0, math.pi):
        values.imag = 0.0
    if not np.isfinite(values).all():
        names = " or ".join(f"E_{{{alpha},{sigma}}}" for sigma in sigmas)
        bad = np.argmin(np.isfinite(values).all(axis=0))
        raise OverflowGuard(f"{names} at {complex(z[bad])!r} exceeds double range")
    return np.conjugate(values, out=values) if lower else values


def _ml_values(alpha, sigmas, m, beta):
    """E_{alpha,sigma}(z) for each sigma in sigmas at z = m (-i)^beta, for
    every element of the array of moduli m >= 0, as an array of shape
    (len(sigmas),) + m.shape: the evaluator's array entry, one _sweep, as
    the z = (-i)^beta t^alpha lambda of a sweep lie on one ray."""
    m = np.asarray(m, dtype=float)
    u = neg_i_power(beta)
    flat = m.ravel()
    values = _sweep(alpha, sigmas, flat * u, flat, math.atan2(u.imag, u.real))
    return values.reshape((len(sigmas),) + m.shape)


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
    """Evaluate E_{alpha,sigma}(z) anywhere in the complex plane.

    Relative accuracy 1e-12 (see the module docstring for the method).
    Raises OverflowGuard where E leaves double range and NonConvergence where
    that accuracy cannot be met.  Written with Python scalars and routed by
    _route, not the array router, which costs more for one z; it agrees
    with an array call at the same z to the rounding of the pole.
    """
    z = complex(z)
    lower = math.copysign(1.0, z.imag) < 0.0
    upper = z.conjugate() if lower else z
    sigmas = (params.sigma,)
    out = np.empty((1, 1), dtype=complex)
    value = _evaluate(params.alpha, sigmas, np.array([upper]), _route(params.alpha, sigmas, upper), out).item(0)
    if z.imag == 0.0:
        value = complex(value.real, 0.0)
    if not cmath.isfinite(value):
        raise OverflowGuard(f"E_{{{params.alpha},{params.sigma}}}({z!r}) exceeds double range")
    return value.conjugate() if lower else value


def _ml_at(alpha, sigmas, z):
    """E_{alpha,sigma}(z) for each sigma in sigmas at every element of the
    array z, as an array of shape (len(sigmas),) + z.shape.

    The z are split by argument into sweeps (_by_argument); a lone z is
    ml_eval's.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    values = np.empty((len(sigmas), flat.size), dtype=complex)
    if flat.size == 1:
        values[:, 0] = [ml_eval(MLParams(alpha, sigma), flat[0]) for sigma in sigmas]
    else:
        for ids, m, theta in _by_argument(flat):
            values[:, ids] = _sweep(alpha, sigmas, flat[ids], m, theta)
    return values.reshape((len(sigmas),) + z.shape)


def ml_pair(alpha: float, z):
    """(E_{alpha,alpha}(z), E_{alpha,1}(z)) at every element of the array z.

    The two functions of the transport integrands, from one evaluation:
    for these sigmas the parabola depends on z alone, so each parabola's
    nodes serve both.  z may mix arguments; the z of each argument are one
    sweep of the array router (_ml_at).  Agrees with ml_eval element by
    element to rounding, with the same exact routes, conjugate symmetry and
    errors.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"ml_pair requires alpha in (0, 1], got {alpha!r}")
    values = _ml_at(alpha, (alpha, 1.0), z)
    # arrays of z's shape, 0-d for a scalar z
    return values[0, ...], values[1, ...]


def ml_deriv(alpha: float, z: complex) -> complex:
    """d/dz E_{alpha,1}(z) = (1/alpha) E_{alpha,alpha}(z) for alpha in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"ml_deriv requires alpha in (0, 1], got {alpha!r}")
    return ml_eval(MLParams(alpha, alpha), z) / alpha
