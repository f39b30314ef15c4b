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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rgamma

from .errors import DomainError, NonConvergence, OverflowGuard

__all__ = [
    "MLParams",
    "MLAccuracy",
    "DEFAULT_ACCURACY",
    "gamma_reciprocal",
    "neg_i_power",
    "sector_half_angle",
    "ml_eval",
    "ml_deriv",
]

# exp() overflows past ~709.78; leave headroom for the algebraic prefactor.
_EXP_ARG_LIMIT = 705.0

# natural log of the float64 unit roundoff
_LOG_UNIT = math.log(np.finfo(float).eps)

# most trapezoidal nodes on either side of the contour's vertex
_N_MAX = 200

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
    terms of the algebraic expansions drop out.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return float(rgamma(x))


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


def _contour(alpha, sigma, z, r, theta, eps):
    """E by the trapezoidal rule on the optimal parabola to tolerance eps,
    plus the residue of the pole s* = z^(1/alpha) if the parabola passes
    left of it."""
    log_eps = math.log(eps)
    power = alpha - sigma
    # strength of the branch point s = 0
    p0 = max(0.0, -2.0 * (power + 1.0))
    # for alpha <= 1 the only pole on the principal sheet is s* = z^(1/alpha),
    # there while arg z <= pi alpha.  phi(s) = (Re s + |s|)/2 is the vertex
    # of the parabola through s; a pole on the cut (phi = 0) is left of all.
    pole = None
    if theta <= math.pi * alpha:
        pole = cmath.rect(r ** (1.0 / alpha), theta / alpha)
        phi = 0.5 * (pole.real + abs(pole))
        if phi <= 1e-15:
            pole = None
    if pole is None:
        regions = [(_region_beyond(0.0, p0, log_eps), False)]
    else:
        regions = [(_region_below(phi, p0, log_eps), True)]
        if phi < log_eps - _LOG_UNIT:
            regions.append((_region_beyond(phi, 1.0, log_eps), False))
    regions = [(par, res) for par, res in regions if par is not None]
    if not regions or min(par[2] for par, _ in regions) > _N_MAX:
        raise NonConvergence(
            f"E_{{{alpha},{sigma}}}({z!r}): no parabola meets eps={eps:g} "
            f"with at most {_N_MAX} nodes per side"
        )
    (mu, h, n), residue = min(regions, key=lambda region: region[0][2])

    u = h * np.arange(-n, n + 1)
    s = mu * (1.0 - u * u) + 2j * mu * u
    log_s = np.log(s)
    terms = np.exp(s + power * log_s) / (np.exp(alpha * log_s) - z) * (1j - u)
    value = complex(terms.sum()) * (mu * h / (1j * math.pi))
    if residue:
        w = pole + (1.0 - sigma) * cmath.log(pole)
        if w.real > _EXP_ARG_LIMIT:
            raise OverflowGuard(
                f"E_{{{alpha},{sigma}}}({z!r}) exceeds double range "
                f"(Re z^(1/alpha) = {pole.real:.1f})"
            )
        value += cmath.exp(w) / alpha
    return value


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


def _ray(alpha, sigma, z, r0):
    """E at z = r0 exp(i pi alpha), 0 < alpha < 1, sigma <= 1:

        (1/(2 alpha)) rho0^(1-sigma) e^(i pi (1-sigma)) e^(-rho0)
        + PV Int_0^inf K(r) dr,                      rho0 = r0^(1/alpha),

        K(r) = r^((1-sigma)/alpha) e^(-r^(1/alpha)) (r sin(pi(1-sigma)) - z sin(pi(1-sigma+alpha)))
               / (alpha pi (r - r0) (r - z e^(i pi alpha))).

    The principal value folds the interval of half-width d around r0 onto
    [0, d] (Gauss-Legendre); the rest is taken by tanh-sinh up to
    r^(1/alpha) = 50.
    """
    rho0 = r0 ** (1.0 / alpha)
    s1 = _cis_pi(1.0 - sigma).imag
    s2 = _cis_pi(1.0 - sigma + alpha).imag
    zw = z * _cis_pi(alpha)
    expo = (1.0 - sigma) / alpha

    def g(r):
        return r**expo * np.exp(-(r ** (1.0 / alpha))) * (r * s1 - z * s2) / (r - zw)

    def regular(a, b):
        r = a + (b - a) * _TS_NODES
        return complex(np.sum(_TS_WEIGHTS * g(r) / (r - r0))) * (b - a)

    r_cut = _RHO_CUT**alpha
    d = r0 * min(0.5, math.sin(math.pi * alpha))
    total = regular(0.0, min(r0 - d, r_cut))
    if r0 - d < r_cut:
        u = d * _GL_NODES
        total += complex(np.sum(_GL_WEIGHTS * (g(r0 + u) - g(r0 - u)) / _GL_NODES))
        if r0 + d < r_cut:
            total += regular(r0 + d, r_cut)
    half = _cis_pi(1.0 - sigma) * (0.5 / alpha * rho0 ** (1.0 - sigma) * math.exp(-rho0))
    return half + total / (alpha * math.pi)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _ml_upper(alpha, sigma, z, rel_tol):
    """E_{alpha,sigma}(z) for Im z >= 0."""
    if z == 0:
        return complex(gamma_reciprocal(sigma))
    if alpha == 1.0 and sigma == 1.0:
        if z.real > _EXP_ARG_LIMIT:
            raise OverflowGuard(f"E_{{1,1}}({z!r}) = exp(z) exceeds double range")
        return cmath.exp(z)
    r = abs(z)
    theta = math.atan2(z.imag, z.real)
    # for |z| < 1 the half residue is not small against E, and the contour
    # alone is accurate in both components
    on_ray = alpha < 1.0 and sigma <= 1.0 and abs(theta - math.pi * alpha) <= _RAY_TOL
    try:
        if on_ray and r >= 1.0:
            value = _ray(alpha, sigma, z, r)
        else:
            value = _contour(alpha, sigma, z, r, theta, _EPS_PER_REL_TOL * rel_tol)
    except OverflowError:
        raise OverflowGuard(f"E_{{{alpha},{sigma}}}({z!r}): |z|^(1/alpha) exceeds double range") from None
    if z.imag == 0.0:
        value = complex(value.real, 0.0)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowGuard(f"E_{{{alpha},{sigma}}}({z!r}) exceeds double range")
    return value


def ml_eval(params: MLParams, z: complex, acc: MLAccuracy = DEFAULT_ACCURACY) -> complex:
    """Evaluate E_{alpha,sigma}(z) anywhere in the complex plane.

    Relative accuracy acc.rel_tol (see the module docstring for the method).
    Raises OverflowGuard where E leaves double range and NonConvergence where
    rel_tol cannot be met.
    """
    z = complex(z)
    if math.copysign(1.0, z.imag) < 0.0:
        return _ml_upper(params.alpha, params.sigma, z.conjugate(), acc.rel_tol).conjugate()
    return _ml_upper(params.alpha, params.sigma, z, acc.rel_tol)


def ml_deriv(alpha: float, z: complex, acc: MLAccuracy = DEFAULT_ACCURACY) -> complex:
    """d/dz E_{alpha,1}(z) = (1/alpha) E_{alpha,alpha}(z) for alpha in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"ml_deriv requires alpha in (0, 1], got {alpha!r}")
    return ml_eval(MLParams(alpha, alpha), z, acc) / alpha
