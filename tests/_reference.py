"""Independent reference implementations used only by the tests.

All of them deliberately avoid the code paths of the package under test,
which evaluates the Mittag-Leffler function by a float64 contour integral.
The Mittag-Leffler references are a plain mpmath power series at a fixed
working precision, the real-line integral of Gorenflo, Loutchko and Luchko
by mpmath quadrature (where the series would need thousands of digits), and
the Faddeeva function at alpha = 1/2.
The eigenvalue reference discretizes the half-line operator with second
order finite differences and LAPACK's tridiagonal bisection, then removes
the leading h^2 error by Richardson extrapolation; the production solver
is a P1 finite-element pencil with its own inertia bisection, so agreement
is a genuine cross-check rather than the same arithmetic twice.
The reference for the momentum-derivative norm of the ground state
assembles that same P1 pencil with its own quadrature, takes eigenvectors
from dense LAPACK eigh and differences them in k with Richardson
extrapolation; the production code uses one banded derivative solve.
"""
import math

import mpmath as mp
import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.special import wofz


def ml_reference(alpha, sigma, z, dps, nmax=200_000):
    """E_{alpha,sigma}(z) by direct mpmath summation at dps digits."""
    with mp.workdps(dps):
        am = mp.mpf(alpha)
        sm = mp.mpf(sigma)
        zm = mp.mpc(z)
        total = mp.mpc(0)
        zn = mp.mpc(1)
        floor = mp.mpf(10) ** (-(dps - 5))
        quiet = 0
        for n in range(nmax):
            arg = am * n + sm
            if not (arg <= 0 and arg == mp.floor(arg)):
                term = zn / mp.gamma(arg)
                total += term
                if n > 4 and abs(term) < floor * abs(total):
                    quiet += 1
                    if quiet >= 3:
                        break
                else:
                    quiet = 0
            zn *= zm
        else:
            raise RuntimeError("reference series did not settle")
        return complex(total)


def ml_gll_reference(alpha, sigma, z, dps=30):
    """E_{alpha,sigma}(z) for 0 < alpha < 1, sigma < 1 + alpha, off the rays
    |arg z| = pi alpha, from the real-line integral

        (1/(alpha pi)) Int_0^inf r^((1-sigma)/alpha) exp(-r^(1/alpha))
            (r sin(pi(1-sigma)) - z sin(pi(1-sigma+alpha)))
            / (r^2 - 2 r z cos(pi alpha) + z^2) dr

    plus (1/alpha) z^((1-sigma)/alpha) exp(z^(1/alpha)) where |arg z| < pi alpha,
    by mpmath's tanh-sinh quadrature at dps digits.
    """
    with mp.workdps(dps):
        a, s, zm = mp.mpf(alpha), mp.mpf(sigma), mp.mpc(z)
        s1, s2, c = mp.sinpi(1 - s), mp.sinpi(1 - s + a), mp.cospi(a)

        def kernel(r):
            return (
                r ** ((1 - s) / a) * mp.exp(-(r ** (1 / a))) * (r * s1 - zm * s2)
                / (r * r - 2 * r * zm * c + zm * zm)
            )

        # the integrand has spent itself (below e^-60) by r = 60^alpha
        cut = mp.mpf(60) ** a
        value = mp.quad(kernel, [0, cut / 4, cut / 2, cut]) / (a * mp.pi)
        if abs(mp.arg(zm)) < mp.pi * a:
            value += zm ** ((1 - s) / a) * mp.exp(zm ** (1 / a)) / a
        return complex(value)


def ml_half(sigma, z):
    """E_{1/2,sigma}(z) for sigma in {1/2, 1}: E_{1/2,1}(z) = w(-iz) and
    E_{1/2,1/2}(z) = 1/sqrt(pi) + z w(-iz), w the Faddeeva function."""
    e1 = complex(wofz(-1j * complex(z)))
    if sigma == 1.0:
        return e1
    assert sigma == 0.5
    return 1.0 / math.sqrt(math.pi) + z * e1


def _lam_fd(b, k, L, n):
    h = L / (n + 1)
    x = h * np.arange(1, n + 1)
    diag = 2.0 / h**2 + (b * x - k) ** 2
    off = np.full(n - 1, -1.0 / h**2)
    return float(
        eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True)[0]
    )


def lam_reference(b, k):
    """Lowest eigenvalue of -d^2/dx^2 + (bx-k)^2 on (0, L), Dirichlet.

    Finite differences at two resolutions with h exactly halved; the
    extrapolant (4*fine - coarse)/3 kills the h^2 term and is good to
    about 1e-9 at these sizes.
    """
    reach = 12.0 / math.sqrt(b) + max(k, 0.0) / b
    wall = (k + math.sqrt(10.0 * (3.0 * b + k * k))) / b + 1.0 / math.sqrt(b)
    L = max(reach, wall)
    coarse = _lam_fd(b, k, L, 6000)
    fine = _lam_fd(b, k, L, 12001)
    return (4.0 * fine - coarse) / 3.0


def _p1_pencil(b, k, L, n):
    """Dense P1 stiffness-plus-potential and mass matrices on (0, L) with n
    interior nodes, element integrals by 4-point Gauss-Legendre (exact for
    the degree-4 integrands)."""
    h = L / (n + 1)
    g, gw = np.polynomial.legendre.leggauss(4)
    s, w = 0.5 * (g + 1.0), 0.5 * gw
    left = np.arange(n + 1) * h  # left ends of the n + 1 elements
    V = (b * (left[:, None] + h * s[None, :]) - k) ** 2
    ll = h * (V * ((1 - s) ** 2 * w)).sum(axis=1)
    lr = h * (V * ((1 - s) * s * w)).sum(axis=1)
    rr = h * (V * (s * s * w)).sum(axis=1)
    K = np.diag(2.0 / h + rr[:-1] + ll[1:])
    K += np.diag(lr[1:-1] - 1.0 / h, 1) + np.diag(lr[1:-1] - 1.0 / h, -1)
    M = np.diag(np.full(n, 4.0 * h / 6.0))
    M += np.diag(np.full(n - 1, h / 6.0), 1) + np.diag(np.full(n - 1, h / 6.0), -1)
    return K, M


def _p1_ground_vector(b, k, L, n):
    K, M = _p1_pencil(b, k, L, n)
    v = eigh(K, M, subset_by_index=[0, 0])[1][:, 0]
    v = v / math.sqrt((L / (n + 1)) * float(v @ v))
    return v if v[np.argmax(np.abs(v))] > 0.0 else -v


def cap_reference(b, k, L, n, step=1e-3):
    """||P_perp d/dk phi_1||^2 for the trapezoid-normalised P1 ground state:
    central differences of dense-eigh eigenvectors at steps `step` and
    2*step, Richardson-extrapolated, then projected against phi_1."""
    h = L / (n + 1)
    phi = {j: _p1_ground_vector(b, k + j * step, L, n) for j in (-2, -1, 0, 1, 2)}
    d1 = (phi[1] - phi[-1]) / (2.0 * step)
    d2 = (phi[2] - phi[-2]) / (4.0 * step)
    d = (4.0 * d1 - d2) / 3.0
    d -= h * float(phi[0] @ d) * phi[0]
    return h * float(d @ d)
