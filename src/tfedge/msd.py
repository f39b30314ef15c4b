"""Transverse spreading of the evolved wavepacket along the edge direction.

The second moment of the edge coordinate decomposes, after Fourier transform
in the edge variable, into four momentum integrals:

    A(t) = t^(2 alpha) Int |E_{a,a}(z)|^2 (lambda')^2 chi^2 dk
    B(t) =             Int |E_{a,1}(z)|^2 (chi')^2 dk
    C(t) =             Int |E_{a,1}(z)|^2 chi^2 Phi dk
    F(t) = 2 t^alpha   Int Re{ (-i)^beta E_{a,a}(z) conj(E_{a,1}(z)) }
                           lambda' chi' chi dk

with z = (-i)^beta t^alpha lambda_1(k) and Phi(k) the squared norm of the
projected momentum gradient of the transverse mode.  A is the ballistic
channel (band velocity), B and C are the packet's intrinsic k-width and the
mode deformation, F the cross term; at alpha = beta = 1 the phases align so
F vanishes identically.

The long-time models: on the diagonal beta = alpha the ballistic channel
dominates and msd ~ t^2 times msd_naber_leading; for beta > alpha every
channel decays and t^(2 alpha) * msd approaches msd_case2_leading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .edge_current import (
    FractionalOrder,
    QuadratureRule,
    SpectralTable,
    TransportTrace,
    _fsum_dot,
    _table,
    build_spectral_table,
    map_over_times,
    neg_i_power,
)
from .errors import DomainError
from .fiber_spectrum import HalfLineGrid, ModelParams
from .mittag_leffler import (
    DEFAULT_ACCURACY,
    MLAccuracy,
    gamma_reciprocal,
    ml_eval,  # noqa: F401  perfbench's traced run rebinds msd.ml_eval
    ml_pair,
)
from .wavepacket import ChiProfile

__all__ = [
    "MSDBreakdown",
    "msd_direct",
    "msd_assembled",
    "msd_naber_leading",
    "msd_case2_leading",
    "msd_trace",
    "packet_norm_sq",
]


@dataclass(frozen=True)
class MSDBreakdown:
    """The four spreading channels and their sum at one time."""

    A: float
    B: float
    C: float
    F: float
    total: float


def packet_norm_sq(table: SpectralTable) -> float:
    """Squared norm of the packet, Int chi^2 dk (transverse mode is unit)."""
    return _fsum_dot(table.rule.weights, table.chi_vals**2)


def _ml_pair(order, lam, t, acc):
    """E_{a,a} and E_{a,1} at z = (-i)^beta t^alpha lambda, per node."""
    return ml_pair(order.alpha, neg_i_power(order.beta) * t**order.alpha * lam, acc)


def msd_direct(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
    acc: MLAccuracy = DEFAULT_ACCURACY,
) -> MSDBreakdown:
    """Exact-kernel second moment at time t, split into its four channels.

    Needs the mode-deformation norm Phi, so a supplied table must carry cap
    data (build_spectral_table with with_cap=True).
    """
    if not t > 0.0:
        raise DomainError(f"msd_direct requires t > 0, got {t!r}")
    tab = _table(model, profile, grid, rule, table, with_cap=True)
    a, bta = order.alpha, order.beta
    eaa, ea1 = _ml_pair(order, tab.lam, t, acc)
    w = tab.rule.weights
    chi2 = tab.chi_vals**2
    rot = neg_i_power(bta)
    A = t ** (2.0 * a) * _fsum_dot(w, np.abs(eaa) ** 2 * tab.dlam**2 * chi2)
    B = _fsum_dot(w, np.abs(ea1) ** 2 * tab.dchi_vals**2)
    C = _fsum_dot(w, np.abs(ea1) ** 2 * chi2 * tab.cap)
    F = (
        2.0
        * t**a
        * _fsum_dot(
            w,
            (rot * eaa * np.conj(ea1)).real
            * tab.dlam
            * tab.dchi_vals
            * tab.chi_vals,
        )
    )
    return MSDBreakdown(A=A, B=B, C=C, F=F, total=A + B + C + F)


def msd_assembled(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
    acc: MLAccuracy = DEFAULT_ACCURACY,
) -> float:
    """Second moment recomputed from the momentum gradient of the evolved
    amplitude, squared after assembly rather than channel by channel.

    Per node the gradient has a component along the transverse mode,
    g = t^alpha (-i)^beta lambda' chi E_{a,a} + chi' E_{a,1}, and an
    orthogonal component chi E_{a,1} of squared norm Phi, so the integrand is
    |g|^2 + chi^2 |E_{a,1}|^2 Phi.  Equals the channel sum up to rounding;
    kept as an independent consistency path.
    """
    if not t > 0.0:
        raise DomainError(f"msd_assembled requires t > 0, got {t!r}")
    tab = _table(model, profile, grid, rule, table, with_cap=True)
    a, bta = order.alpha, order.beta
    eaa, ea1 = _ml_pair(order, tab.lam, t, acc)
    rot = neg_i_power(bta)
    g = t**a * rot * tab.dlam * tab.chi_vals * eaa + tab.dchi_vals * ea1
    dens = np.abs(g) ** 2 + tab.chi_vals**2 * np.abs(ea1) ** 2 * tab.cap
    return _fsum_dot(tab.rule.weights, dens)


def msd_naber_leading(
    alpha: float,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    table: Optional[SpectralTable] = None,
) -> float:
    """Ballistic coefficient on the diagonal beta = alpha:

        msd(t) ~ t^2 (1/alpha^2) Int lambda^(2(1-alpha)/alpha) (lambda')^2 chi^2 dk.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    tab = _table(model, profile, grid, rule, table)
    vals = tab.lam ** (2.0 * (1.0 - alpha) / alpha) * tab.dlam**2 * tab.chi_vals**2
    return (1.0 / alpha**2) * _fsum_dot(tab.rule.weights, vals)


def msd_case2_leading(
    alpha: float,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    table: Optional[SpectralTable] = None,
) -> float:
    """Decay coefficient for beta > alpha, from E_{a,a}(z) ~ -z^-2/Gamma(-alpha)
    and E_{a,1}(z) ~ -z^-1/Gamma(1-alpha) in the A, B + C and F channels:

        t^(2 alpha) msd(t) -> (1/Gamma(-alpha)^2) Int (lambda')^2 lambda^-4 chi^2 dk
                            + (1/Gamma(1-alpha)^2) Int ((chi')^2 + chi^2 Phi) lambda^-2 dk
                            + (2/(Gamma(-alpha) Gamma(1-alpha))) Int lambda' lambda^-3 chi chi' dk.

    At alpha = 1/2 the reciprocal-gamma factors are 1/(4 pi), 1/pi and
    -1/pi.  Needs cap data for the Phi part.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"decay coefficient requires alpha in (0, 1), got {alpha!r}")
    tab = _table(model, profile, grid, rule, table, with_cap=True)
    w = tab.rule.weights
    ballistic = gamma_reciprocal(-alpha) ** 2 * _fsum_dot(
        w, tab.dlam**2 * tab.lam**-4 * tab.chi_vals**2
    )
    width = gamma_reciprocal(1.0 - alpha) ** 2 * _fsum_dot(
        w, (tab.dchi_vals**2 + tab.chi_vals**2 * tab.cap) * tab.lam**-2
    )
    cross = 2.0 * gamma_reciprocal(-alpha) * gamma_reciprocal(1.0 - alpha) * _fsum_dot(
        w, tab.dlam * tab.lam**-3 * tab.chi_vals * tab.dchi_vals
    )
    return ballistic + width + cross


def msd_trace(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    times: Sequence[float],
    table: Optional[SpectralTable] = None,
    acc: MLAccuracy = DEFAULT_ACCURACY,
) -> TransportTrace:
    """Total second moment swept over a time grid (shared spectral table)."""
    tab = _table(model, profile, grid, rule, table, with_cap=True)
    fn = lambda t: msd_direct(order, model, profile, grid, rule, t, tab, acc).total
    values = map_over_times(fn, times)
    return TransportTrace(
        times=np.asarray(list(times), dtype=float),
        values=np.asarray(values, dtype=float),
        method="Direct",
    )
