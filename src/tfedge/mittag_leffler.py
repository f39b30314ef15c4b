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
principal sheet while |arg z| <= pi alpha.

Three cases take exact routes:

- z = 0 returns 1/Gamma(sigma);
- alpha = sigma = 1 returns exp(z), which is exponentially small where the
  contour sum is O(1);
- on the ray |arg z| = pi alpha (for |z| >= 1, sigma <= 1) the pole sits on
  the branch cut, and E is half its residue plus the principal value of the
  real-line integral of Gorenflo, Loutchko and Luchko (Fract. Calc. Appl.
  Anal. 5 (2002)).  The sines and cosines of multiples of pi/2 are exact
  there, so at alpha = 1/2, sigma in {1/2, 1} one component of E is the half
  residue alone: Re E_{1/2,1}(-iy) = exp(-y^2) to full relative accuracy.

E is evaluated at Im z >= 0 and conjugated below the real axis, so
E(conj z) == conj E(z) bit for bit.

ml_eval takes one z; ml_pair takes an array and returns E_{alpha,alpha} and
E_{alpha,1}, the pair every transport integrand needs, at every element.
Both run the same evaluator: each z is routed with Python scalars, the
parameters are chosen once per distinct pole vertex (for these sigmas every
vertex beyond ~6 shares one parabola), and the numerics run once per route
and per parabola over all the z that take it, so a time sample over a
quadrature table is one product of a Cauchy matrix 1/(s_j^alpha - z_i) with
two weight vectors.  A single z skips the grouping.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, OverflowGuard

__all__ = [
    "MLParams",
    "MLAccuracy",
    "DEFAULT_ACCURACY",
    "gamma_reciprocal",
    "neg_i_power",
    "sector_half_angle",
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
# relative to |E| was measured at up to 230 times the tolerance, so the
# contour runs at rel_tol / 1000.  Below 1e-15 roundoff leaves no admissible
# parabola, so rel_tol >= 1e-12.
_EPS_PER_REL_TOL = 1e-3
_REL_TOL_MIN = 1e-12

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


@dataclass(frozen=True)
class MLAccuracy:
    """Target accuracy of the evaluator, relative to |E|.

    rel_tol  in [1e-12, 1); the contour runs at tolerance rel_tol / 1000 and
             raises NonConvergence rather than loosening it
    """

    rel_tol: float = 1e-12

    def __post_init__(self):
        if not (_REL_TOL_MIN <= self.rel_tol < 1.0):
            raise DomainError(
                f"MLAccuracy.rel_tol must lie in [{_REL_TOL_MIN:g}, 1), got {self.rel_tol!r}"
            )


DEFAULT_ACCURACY = MLAccuracy()


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


def sector_half_angle(alpha: float) -> float:
    """Half-angle of the exponential-growth sector, 3*pi*alpha/4."""
    return 0.75 * math.pi * alpha


# (-i)^n indexed by n mod 4, written out so that no component is a rounded zero
_NEG_I_POWERS = (
    complex(1.0, 0.0),
    complex(0.0, -1.0),
    complex(-1.0, 0.0),
    complex(0.0, 1.0),
)


def neg_i_power(p: float) -> complex:
    """(-i)^p = exp(-i pi p / 2), exact whenever p is an integer.

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


def _region_below(phi_pole, p0, log_eps):
    """(mu, h, N) for a parabola between the branch point s = 0, of strength
    p0, and the pole at phi_pole; None if the roundoff allowance cannot fit
    between them.  Garrappa's OptimalParam_RB with its lower singularity at 0."""
    f_max = math.exp(log_eps - _LOG_UNIT)
    sq_pole = min(math.sqrt(phi_pole), 2.0 * math.sqrt(log_eps - _LOG_UNIT))
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
        w = -phi_pole / log_eps
        den = 2.0 + w - (1.0 + w) * fp + 1.0 / f_bar
        sqb_0 = fp * sq_pole / den
        sqb_pole = (2.0 + w - (1.0 + w) * fp) * sq_pole / den
    log_eps -= math.log(f_bar)
    w = -sqb_pole * sqb_pole / log_eps
    mu = (((1.0 + w) * sqb_0 + sqb_pole) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_eps * (sqb_pole - sqb_0) / ((1.0 + w) * sqb_0 + sqb_pole)
    return mu, h, math.ceil(math.sqrt(1.0 - log_eps / mu) / h)


def _region_beyond(phi_j, p_j, log_eps):
    """(mu, h, N) for a parabola right of the last singularity phi_j, of
    strength p_j; None if roundoff rules the region out.  Garrappa's
    OptimalParam_RU, which steers the error factor into (1, 10), aiming at 5."""
    sq_phi = math.sqrt(phi_j)
    phib = 1.01 * phi_j if phi_j > 0.0 else 0.01
    sqb = math.sqrt(phib)
    while True:
        le = log_eps / phib
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
    threshold = log_eps - _LOG_UNIT
    if mu > threshold:
        q = 0.0 if p_j < 1e-14 else 5.0 ** (-1.0 / p_j) * math.sqrt(mu)
        if (q + sq_phi) ** 2 >= threshold:
            return None
        w = math.sqrt(_LOG_UNIT / (_LOG_UNIT - log_eps))
        u = math.sqrt(-((q + sq_phi) ** 2) / _LOG_UNIT)
        mu = threshold
        n = math.ceil(w * log_eps / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return mu, h, n


def _parabola(phi, p0, log_eps):
    """((mu, h, N), residue) of the parabola with the fewest nodes, residue
    telling whether it passes left of the pole at vertex phi (None: no pole
    on the principal sheet); None if no parabola meets log_eps within
    _N_MAX nodes per side."""
    if phi is None:
        par, residue = _region_beyond(0.0, p0, log_eps), False
    else:
        par, residue = _region_below(phi, p0, log_eps), True
        if phi < log_eps - _LOG_UNIT:
            right = _region_beyond(phi, 1.0, log_eps)
            if right is not None and (par is None or right[2] < par[2]):
                par, residue = right, False
    if par is None or par[2] > _N_MAX:
        return None
    return par, residue


def _contour(alpha, sigmas, z, parabola, residue_exponents):
    """E_{alpha,sigma}(z), each sigma, by the trapezoidal rule on one
    parabola (mu, h, N) shared by every z of the 1-d array z; shape
    (len(sigmas), z.size).  residue_exponents is None, or per z the
    exponents of the residues (1/alpha) s*^(1-sigma) e^(s*), one per sigma,
    of poles s* right of the parabola.

    The nodes are built once for all z, and each sigma sums its weights
    e^s s^(alpha-sigma) ds against the Cauchy matrix 1/(s_j^alpha - z_i).
    Nodes run down the rows and each column is summed in the same order, so
    equal z give equal E bit for bit.
    """
    mu, h, n = parabola
    # s = mu (1 + iu)^2 at u = h k, with trapezoid factor h (ds/du) / (2 pi i) = mu h (1 + iu) / pi
    v = h * _I_STEPS[_N_MAX - n : _N_MAX + n + 1] + 1.0
    s = mu * v**2
    log_s = np.log(s)
    # the Cauchy matrix, as its denominators s_j^alpha - z_i
    gaps = np.exp(alpha * log_s)[:, None] - z
    scale = v * (mu * h / math.pi)
    sums = []
    for sigma in sigmas:
        weights = np.exp(s if sigma == alpha else s + (alpha - sigma) * log_s) * scale
        sums.append(np.add.reduce(weights[:, None] / gaps, axis=0))
    out = np.array(sums)
    if residue_exponents is not None:
        out += np.exp(residue_exponents).T
    return out


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
# the fold Int_0^1 (g(r0 + d x) - g(r0 - d x)) / x dx, as weights of the
# abscissae r0 + d x, then r0 - d x
_GL_FOLD = np.concatenate((_GL_WEIGHTS / _GL_NODES, -_GL_WEIGHTS / _GL_NODES))[:, None]


def _ray_intervals(alpha, r0):
    """Half-width d of the interval folded around r0 on the ray (scalar or
    array r0), and the end r_cut of the integral, where r^(1/alpha) = 50."""
    return r0 * min(0.5, math.sin(math.pi * alpha)), _RHO_CUT**alpha


def _ray(alpha, sigmas, z, r0, rho0, reach):
    """E at z = r0 exp(i pi alpha), 0 < alpha < 1, sigma <= 1:

        (1/(2 alpha)) rho0^(1-sigma) e^(i pi (1-sigma)) e^(-rho0)
        + PV Int_0^inf K(r) dr,                      rho0 = r0^(1/alpha),

        K(r) = r^((1-sigma)/alpha) e^(-r^(1/alpha)) (r sin(pi(1-sigma)) - z sin(pi(1-sigma+alpha)))
               / (alpha pi (r - r0) (r - z e^(i pi alpha))).

    The principal value folds the interval of half-width d around r0 onto
    [0, d] (Gauss-Legendre); the rest is taken by tanh-sinh up to
    r^(1/alpha) = 50 (r = r_cut).  z, r0 and rho0 are 1-d arrays of z that
    reach the same intervals: [0, min(r0 - d, r_cut)] alone (reach 0), the
    fold too (reach 1), or also [r0 + d, r_cut] (reach 2).  Their abscissae
    form one array, one column per z, and e^(-r^(1/alpha)) and
    1/(r - z e^(i pi alpha)) are shared by the sigmas.  Returns shape
    (len(sigmas), z.size).
    """
    d, r_cut = _ray_intervals(alpha, r0)
    b = np.minimum(r0 - d, r_cut)
    r = [b * _TS_NODES[:, None]]
    weights = [_TS_WEIGHTS[:, None] * b / (r[0] - r0)]
    if reach >= 1:
        u = d * _GL_NODES[:, None]
        r += [r0 + u, r0 - u]
        weights.append(np.broadcast_to(_GL_FOLD, (_GL_FOLD.shape[0], z.size)))
    if reach == 2:
        a = r0 + d
        r.append(a + (r_cut - a) * _TS_NODES[:, None])
        weights.append(_TS_WEIGHTS[:, None] * (r_cut - a) / (r[-1] - r0))
    r = np.concatenate(r)
    rho = r ** (1.0 / alpha)
    # e^(-r^(1/alpha)), flushed to zero below e^-700: numpy's exp is an order
    # of magnitude slower on arguments that underflow
    decay = np.exp(-rho, out=np.zeros_like(rho), where=rho < 700.0)
    shared = np.concatenate(weights) * decay / (r - z * _cis_pi(alpha))
    out = np.empty((len(sigmas), z.size), dtype=complex)
    for k, sigma in enumerate(sigmas):
        s1 = _cis_pi(1.0 - sigma).imag
        s2 = _cis_pi(1.0 - sigma + alpha).imag
        total = np.add.reduce(r ** ((1.0 - sigma) / alpha) * (r * s1 - z * s2) * shared, axis=0)
        half = _cis_pi(1.0 - sigma) * (0.5 / alpha * rho0 ** (1.0 - sigma) * np.exp(-rho0))
        out[k] = half + total / (alpha * math.pi)
    return out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


# the routes of _route
_ZERO, _EXP, _RAY, _CONTOUR = "zero", "exp", "ray", "contour"


def _route(alpha, sigmas, zi, log_eps, parabolas):
    """How E is taken at one z (Im z >= 0), as (route, datum):

        route                   datum
        (_ZERO, None)           None       z = 0: 1/Gamma(sigma)
        (_EXP, None)            None       alpha = 1, every sigma = 1: exp(z)
        (_RAY, reach)           (|z|, |z|^(1/alpha))
                                           the ray |arg z| = pi alpha, over
                                           the intervals of _ray that reach
                                           names
        (_CONTOUR, parabola)    None or    the parabola ((mu, h, N), residue)
                                exponents  of _parabola; if it passes left of
                                           the pole s*, the exponents
                                           s* + (1 - sigma) log s* - log alpha
                                           of the residue, one per sigma

    The sigmas take a route together (the ray when every sigma is <= 1),
    and the strongest branch point among them sets the parabola; for
    sigma <= 1 + alpha it has strength zero.  Parabolas are chosen once per
    distinct pole vertex and kept in the dict parabolas.
    """
    if zi == 0:
        return (_ZERO, None), None
    if alpha == 1.0 and all(sigma == 1.0 for sigma in sigmas):
        if zi.real > _EXP_ARG_LIMIT:
            raise OverflowGuard(f"E_{{1,1}}({zi!r}) = exp(z) exceeds double range")
        return (_EXP, None), None
    r = abs(zi)
    theta = math.atan2(zi.imag, zi.real)
    pole = key = None
    try:
        # for |z| < 1 the half residue is not small against E, and the
        # contour alone is accurate in both components
        if (
            alpha < 1.0
            and max(sigmas) <= 1.0
            and r >= 1.0
            and abs(theta - math.pi * alpha) <= _RAY_TOL
        ):
            d, r_cut = _ray_intervals(alpha, r)
            reach = (r - d < r_cut) + (r + d < r_cut)
            return (_RAY, reach), (r, r ** (1.0 / alpha))
        # for alpha <= 1 the only pole on the principal sheet is
        # s* = z^(1/alpha), there while arg z <= pi alpha.  phi(s) =
        # (Re s + |s|)/2 is the vertex of the parabola through s; a pole on
        # the cut (phi = 0) is left of all.
        if theta <= math.pi * alpha:
            pole = cmath.rect(r ** (1.0 / alpha), theta / alpha)
            phi = 0.5 * (pole.real + abs(pole))
            if phi > 1e-15:
                key = phi
    except OverflowError:
        raise OverflowGuard(
            f"E_{{{alpha},{sigmas[0]}}}({zi!r}): |z|^(1/alpha) exceeds double range"
        ) from None
    p0 = max(0.0, -2.0 * (alpha - max(sigmas) + 1.0))
    if key is not None and p0 < 1e-14:
        # with p0 = 0 the parabola below a pole depends on its vertex only
        # up to the clip of sqrt(phi) in _region_below: beyond, one parabola
        key = min(key, 4.0 * (log_eps - _LOG_UNIT))
    if key not in parabolas:
        parabolas[key] = _parabola(key, p0, log_eps)
        if parabolas[key] is None:
            raise NonConvergence(
                f"E_{{{alpha},{sigmas[0]}}}({zi!r}): no parabola meets "
                f"eps={math.exp(log_eps):g} with at most {_N_MAX} nodes per side"
            )
    parabola = parabolas[key]
    if not parabola[1]:
        return (_CONTOUR, parabola), None
    log_pole = cmath.log(pole)
    exponents = []
    for sigma in sigmas:
        w = pole + (1.0 - sigma) * log_pole
        if w.real > _EXP_ARG_LIMIT:
            raise OverflowGuard(
                f"E_{{{alpha},{sigma}}}({zi!r}) exceeds double range "
                f"(Re z^(1/alpha) = {pole.real:.1f})"
            )
        exponents.append(w - math.log(alpha))
    return (_CONTOUR, parabola), exponents


def _on_route(alpha, sigmas, z, route, data):
    """E for each sigma at the z of the 1-d array z, all on one route with
    the per-z data of _route; shape (len(sigmas), z.size)."""
    kind, detail = route
    if kind == _ZERO:
        return np.array([[gamma_reciprocal(sigma)] * z.size for sigma in sigmas], dtype=complex)
    if kind == _EXP:
        return np.exp([z] * len(sigmas))
    if kind == _RAY:
        r0, rho0 = np.array(data).T
        return _ray(alpha, sigmas, z, r0, rho0, detail)
    parabola, residue = detail
    return _contour(alpha, sigmas, z, parabola, data if residue else None)


def _ml_upper(alpha, sigmas, z, rel_tol):
    """E_{alpha,sigma}(z) for each sigma in sigmas at each z of the 1-d array
    z (Im z >= 0), as an array of shape (len(sigmas), z.size).

    Each z is routed with Python scalars (_route); the numerics then run
    once per route over all the z that take it.  A single z skips the
    grouping.
    """
    log_eps = math.log(_EPS_PER_REL_TOL * rel_tol)
    parabolas = {}
    if z.size == 1:
        route, datum = _route(alpha, sigmas, z.item(), log_eps, parabolas)
        return _on_route(alpha, sigmas, z, route, [datum])
    groups = {}
    for i, zi in enumerate(z.tolist()):
        route, datum = _route(alpha, sigmas, zi, log_eps, parabolas)
        ids, data = groups.setdefault(route, ([], []))
        ids.append(i)
        data.append(datum)
    out = np.empty((len(sigmas), z.size), dtype=complex)
    for route, (ids, data) in groups.items():
        out[:, ids] = _on_route(alpha, sigmas, z[ids], route, data)
    return out


def ml_eval(params: MLParams, z: complex, acc: MLAccuracy = DEFAULT_ACCURACY) -> complex:
    """Evaluate E_{alpha,sigma}(z) anywhere in the complex plane.

    Relative accuracy acc.rel_tol (see the module docstring for the method).
    Raises OverflowGuard where E leaves double range and NonConvergence where
    rel_tol cannot be met.  The one-element case of ml_pair's evaluator.
    """
    z = complex(z)
    lower = math.copysign(1.0, z.imag) < 0.0
    upper = z.conjugate() if lower else z
    value = _ml_upper(params.alpha, (params.sigma,), np.array([upper]), acc.rel_tol).item(0)
    if z.imag == 0.0:
        value = complex(value.real, 0.0)
    if not cmath.isfinite(value):
        raise OverflowGuard(f"E_{{{params.alpha},{params.sigma}}}({z!r}) exceeds double range")
    return value.conjugate() if lower else value


def ml_pair(alpha: float, z, acc: MLAccuracy = DEFAULT_ACCURACY):
    """(E_{alpha,alpha}(z), E_{alpha,1}(z)) at every element of the array z.

    The two functions of the transport integrands, from one evaluation:
    for these sigmas the parabola depends on z alone, so each parabola's
    nodes serve both.  Agrees with ml_eval element by element to rounding,
    with the same exact routes, conjugate symmetry and errors.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"ml_pair requires alpha in (0, 1], got {alpha!r}")
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    lower = np.signbit(flat.imag)
    values = _ml_upper(alpha, (alpha, 1.0), np.where(lower, flat.conj(), flat), acc.rel_tol)
    values.imag[:, flat.imag == 0.0] = 0.0
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        bad = complex(flat[np.argmin(finite)])
        raise OverflowGuard(f"E_{{{alpha},{alpha}}} or E_{{{alpha},1}} at {bad!r} exceeds double range")
    values[:, lower] = values[:, lower].conj()
    return values[0].reshape(z.shape), values[1].reshape(z.shape)


def ml_deriv(alpha: float, z: complex, acc: MLAccuracy = DEFAULT_ACCURACY) -> complex:
    """d/dz E_{alpha,1}(z) = (1/alpha) E_{alpha,alpha}(z) for alpha in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"ml_deriv requires alpha in (0, 1], got {alpha!r}")
    return ml_eval(MLParams(alpha, alpha), z, acc) / alpha
