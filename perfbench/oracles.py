"""Reference values computed apart from tfedge's own arithmetic.

Every function here works from its own formula and, where it needs tfedge's
output at all, only reads the spectral table's arrays (nodes, weights, lam,
dlam, cap, chi values).  None calls into tfedge.

- ml_half:        E_{1/2,1}(z) = w(-iz), E_{1/2,1/2}(z) = 1/sqrt(pi) + z w(-iz),
                  with w the Faddeeva function (scipy.special.wofz); the
                  Hankel integral below for E_{1/2,1/2} at |z| > 10.
- ml_series:      the defining power series summed in mpmath at a working
                  precision set from the peak term, for |z|^(1/alpha) <= 320.
- ml_hankel:      the Hankel-contour integral of Gorenflo, Loutchko and Luchko
                  (Fract. Calc. Appl. Anal. 5 (2002)) by an exp-sinh rule in
                  numpy, plus the residue exp(z^(1/alpha)) term where
                  |arg z| < pi*alpha; vectorised over z.
- ml_reference:   picks one of the above (exp(z) at alpha = sigma = 1).
- lambda1_fd:     lowest eigenvalue of the fiber operator from a 3-point
                  finite-difference matrix (scipy.linalg.eigh_tridiagonal) with
                  one Richardson step.
- current_half:   the alpha = 1/2 edge current from the Faddeeva forms.
- ballistic, plateau, msd_decay: the large-time coefficients, built from the
                  table by the benchmark's own derivation.

Run this file to print the self-check: the oracles against each other where
their ranges overlap.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import wofz

# above this |z|^(1/alpha) the series needs thousands of digits; the Hankel
# integral takes over, where exp(-|z|^(1/alpha)) makes the cut harmless
SERIES_X_MAX = 320.0

# exp-sinh nodes r = exp((pi/2) sinh s) and weights dr for s in [-4, 4], h = 1/32
_S = np.linspace(-4.0, 4.0, 257)
_R = np.exp(0.5 * math.pi * np.sinh(_S))
_EXP_SINH = (_R, _R * 0.5 * math.pi * np.cosh(_S) / 32.0)


def ml_half(sigma: float, z):
    """E_{1/2,sigma}(z) for sigma in {1/2, 1} through the Faddeeva function.

    1/sqrt(pi) + z w(-iz) cancels down to O(z^-2) at large |z|, so there
    E_{1/2,1/2} comes from the Hankel integral instead, except on the ray
    |arg z| = pi/2, where the integral has its pole and the identity loses
    nothing (its real and imaginary parts are then separate products).
    """
    z = np.asarray(z, dtype=complex)
    e1 = wofz(-1j * z)
    if sigma == 1.0:
        return e1
    if sigma != 0.5:
        raise ValueError(f"no Faddeeva form for sigma = {sigma}")
    direct = 1.0 / math.sqrt(math.pi) + z * e1
    identity = (np.abs(z) <= 10.0) | (np.abs(np.abs(np.angle(z)) - 0.5 * math.pi) < 1e-12)
    if np.all(identity):
        return direct
    with np.errstate(all="ignore"):
        return np.where(identity, direct, ml_hankel(0.5, 0.5, z))


def ml_series(alpha: float, sigma: float, z: complex, digits: int = 25) -> complex:
    """Power series sum_n z^n / Gamma(alpha n + sigma) in mpmath.

    The peak term is about exp(x), x = |z|^(1/alpha), so x/ln(10) digits can
    cancel; the working precision covers that plus `digits`.
    """
    x = abs(z) ** (1.0 / alpha)
    if x > SERIES_X_MAX:
        raise ValueError(f"series oracle limited to |z|^(1/alpha) <= {SERIES_X_MAX}")
    dps = int(x / math.log(10.0)) + digits + 10
    with mp.workdps(dps):
        a, s, zz = mp.mpf(alpha), mp.mpf(sigma), mp.mpc(z)
        total = mp.mpc(0)
        zn = mp.mpc(1)
        floor = mp.mpf(10) ** (-(digits + 8))
        n = 0
        quiet = 0
        n_peak = x / alpha
        while True:
            term = zn * mp.rgamma(a * n + s)
            total += term
            if n > n_peak and abs(term) <= floor * abs(total):
                quiet += 1
                if quiet >= 3:
                    break
            else:
                quiet = 0
            zn *= zz
            n += 1
        return complex(total)


def ml_hankel(alpha: float, sigma: float, z):
    """E_{alpha,sigma}(z), 0 < alpha < 1, sigma < 1 + alpha, vectorised over z:

        (1/(alpha pi)) Int_0^inf r^((1-sigma)/alpha) exp(-r^(1/alpha))
            (r sin(pi(1-sigma)) - z sin(pi(1-sigma+alpha)))
            / (r^2 - 2 r z cos(pi alpha) + z^2) dr

    plus (1/alpha) z^((1-sigma)/alpha) exp(z^(1/alpha)) where |arg z| < pi*alpha,
    the integral taken by the exp-sinh rule r = exp((pi/2) sinh s), h = 1/32.
    On |arg z| = pi*alpha the integrand has a pole at r = |z|; its weight is
    exp(-|z|^(1/alpha)), so callers use the series where that is not small.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("Hankel oracle needs 0 < alpha < 1")
    z = np.asarray(z, dtype=complex)
    r, dr = _EXP_SINH
    c1 = math.sin(math.pi * (1.0 - sigma))
    c2 = math.sin(math.pi * (1.0 - sigma + alpha))
    ca = math.cos(math.pi * alpha)
    with np.errstate(under="ignore", over="ignore"):
        g = r ** ((1.0 - sigma) / alpha) * np.exp(-(r ** (1.0 / alpha))) * dr
    zc = z[..., None]
    value = np.sum(g * (r * c1 - zc * c2) / (r * r - 2.0 * r * zc * ca + zc * zc), axis=-1)
    value /= alpha * math.pi
    inside = np.abs(np.angle(z)) < math.pi * alpha
    with np.errstate(over="ignore", invalid="ignore"):
        residue = z ** ((1.0 - sigma) / alpha) * np.exp(z ** (1.0 / alpha)) / alpha
    return value + np.where(inside, residue, 0.0)


def ml_reference(alpha: float, sigma: float, z: complex) -> complex:
    """The oracle this benchmark trusts for E_{alpha,sigma}(z)."""
    if alpha == 0.5:
        return complex(ml_half(sigma, z))
    if alpha == 1.0 and sigma == 1.0:
        return complex(np.exp(z))
    if abs(z) ** (1.0 / alpha) <= SERIES_X_MAX:
        return ml_series(alpha, sigma, z)
    return complex(ml_hankel(alpha, sigma, z))


# ---------------------------------------------------------------------------
# fiber eigenvalue
# ---------------------------------------------------------------------------


def _fd_lowest(b: float, k: float, L: float, n: int) -> float:
    h = L / (n + 1)
    x = h * np.arange(1, n + 1)
    diag = 2.0 / h**2 + (b * x - k) ** 2
    off = np.full(n - 1, -1.0 / h**2)
    return float(
        eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0]
    )


def lambda1_fd(b: float, k: float, L: float, n: int = 4000) -> float:
    """Lowest eigenvalue of -d^2/dx^2 + (bx - k)^2 on (0, L), Dirichlet, from
    the 3-point difference matrix at h and h/2 and one Richardson step."""
    coarse = _fd_lowest(b, k, L, n)
    fine = _fd_lowest(b, k, L, 2 * n + 1)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# observables from the table's arrays
# ---------------------------------------------------------------------------


def phase(p: float) -> complex:
    """(-i)^p with exact components at integer p (mpmath's expjpi)."""
    return complex(mp.expjpi(-0.5 * p))


def current_half(beta: float, t: float, tab):
    """(J, scale) at alpha = 1/2 from the Faddeeva forms: J is the edge
    current 2 t^(-1/2) sum w lam chi chi' Re{(-i)^(1+beta) E_{1/2,1/2} conj E_{1/2,1}}
    and scale the same sum over absolute values, the size of its rounding."""
    z = phase(beta) * math.sqrt(t) * tab.lam
    prod = (phase(1.0 + beta) * ml_half(0.5, z) * np.conj(ml_half(1.0, z))).real
    terms = tab.rule.weights * tab.lam * tab.chi_vals * tab.dchi_vals * prod
    pref = 2.0 / math.sqrt(t)
    return pref * float(np.sum(terms)), pref * float(np.sum(np.abs(terms)))


def growth_rate(alpha: float, beta: float, tab) -> float:
    """Semilog slope of ln|J| in the growth regime: 2 max lam^(1/alpha) cos(theta)."""
    theta = math.pi * beta / (2.0 * alpha)
    return 2.0 * float(np.max(tab.lam)) ** (1.0 / alpha) * math.cos(theta)


def ballistic(alpha: float, tab) -> float:
    """lim msd/t^2 on beta = alpha: |E_{a,a}|^2 -> alpha^-2 |z|^(2(1-alpha)/alpha)."""
    w = tab.rule.weights
    return float(
        np.sum(w * tab.lam ** (2.0 * (1.0 - alpha) / alpha) * tab.dlam**2 * tab.chi_vals**2)
    ) / alpha**2


def plateau(alpha: float, tab) -> float:
    """lim J on beta = alpha, from the exponential parts of both E's:
    -(2/alpha^2) Int lam^(1/alpha) chi chi' dk.  (tfedge's model is the
    integrated-by-parts form with lam'.)"""
    w = tab.rule.weights
    return -2.0 / alpha**2 * float(
        np.sum(w * tab.lam ** (1.0 / alpha) * tab.chi_vals * tab.dchi_vals)
    )


def msd_decay(alpha: float, tab) -> float:
    """lim t^(2 alpha) msd for beta > alpha from E_{a,a} ~ -z^-2/Gamma(-a),
    E_{a,1} ~ -z^-1/Gamma(1-a): the A, B + C and F channels."""
    w = tab.rule.weights
    g0 = 1.0 / math.gamma(-alpha)
    g1 = 1.0 / math.gamma(1.0 - alpha)
    lam, dlam, chi, dchi = tab.lam, tab.dlam, tab.chi_vals, tab.dchi_vals
    a_part = g0**2 * np.sum(w * dlam**2 * lam**-4 * chi**2)
    bc_part = g1**2 * np.sum(w * (dchi**2 + chi**2 * tab.cap) * lam**-2)
    f_part = 2.0 * g0 * g1 * np.sum(w * dlam * lam**-3 * chi * dchi)
    return float(a_part + bc_part + f_part)


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


def self_check():
    """[(name, measured, limit)] for every pair of oracles that overlap."""
    out = []
    half = [cmath.rect(r, p) for r in (0.7, 3.0, 8.0) for p in (0.3, 1.6, 3.0)]
    out.append((
        "wofz vs series, alpha=1/2",
        max(_rel(complex(ml_half(s, z)), ml_series(0.5, s, z)) for z in half for s in (0.5, 1.0)),
        1e-13,
    ))
    out.append((
        "exp vs series, alpha=1",
        max(_rel(complex(np.exp(z)), ml_series(1.0, 1.0, z)) for z in (2 + 1j, -9.5 + 3j, 25j)),
        1e-13,
    ))
    pairs = [(0.3, 3.0, 1.5), (0.3, 4.5, 2.5), (0.5, 8.0, 2.0), (0.8, 6.0, 2.9),
             (0.8, 11.0, -0.4 * math.pi), (0.8, 90.0, -0.5 * math.pi)]
    out.append((
        "Hankel vs series",
        max(
            _rel(complex(ml_hankel(a, s, cmath.rect(r, p))), ml_series(a, s, cmath.rect(r, p)))
            for a, r, p in pairs for s in (a, 1.0)
        ),
        1e-12,
    ))
    # k = 0: the odd oscillator state, lambda_1 = 3b exactly
    out.append(("FD+Richardson lambda_1(0) vs 3b", abs(lambda1_fd(1.0, 0.0, 14.0) - 3.0), 1e-8))
    return out


if __name__ == "__main__":
    ok = True
    for name, value, limit in self_check():
        ok &= value <= limit
        print(f"{name:<34} {value:.2e}  (limit {limit:.0e})  {'ok' if value <= limit else 'FAIL'}")
    raise SystemExit(0 if ok else 1)
