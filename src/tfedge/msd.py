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

The channels are rows A, B, C, F of edge_current's channel table, next to J.
msd_trace(order, table, times) takes them at every time from one evaluator
call, and msd_direct is its one-time case; both raise OverflowGuard where a
node value leaves double range (the growth regime at large t).  The
long-time models are the same rows with each E replaced by terms of its
large-|z| split: on the diagonal beta = alpha the ballistic channel's residue
pair dominates and msd ~ t^2 times msd_naber_leading; for beta > alpha every
channel decays and t^(2 alpha) * msd approaches msd_case2_leading, the
algebraic pairs of that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .edge_current import (
    FractionalOrder,
    QuadratureRule,
    SpectralTable,
    TransportTrace,
    _algebraic,
    _exact,
    _finite,
    _fsum,
    _ml_over_times,
    _split,
    _table,
    neg_i_power,
)
from .errors import DomainError
from .fiber_spectrum import HalfLineGrid, ModelParams
from .mittag_leffler import ml_eval  # noqa: F401  perfbench's traced run rebinds msd.ml_eval
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
    return _fsum((table.rule.weights * table.chi_vals**2).tolist())


def msd_direct(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
) -> MSDBreakdown:
    """Exact-kernel second moment at time t, split into its four channels;
    the one-time case of msd_trace."""
    tab = _table(model, profile, grid, rule, table)
    return _msd_channels(order, tab, [t])[0]


def _msd_channels(order, tab, times):
    """MSDBreakdown at each time from the exact kernel (one evaluator call;
    OverflowGuard past double range)."""
    return [
        MSDBreakdown(A=A, B=B, C=C, F=F, total=_finite(A + B + C + F, "msd(t)"))
        for A, B, C, F in _exact(order, tab, times, ("A", "B", "C", "F"))
    ]


def msd_assembled(
    order: FractionalOrder,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    t: float,
    table: Optional[SpectralTable] = None,
) -> float:
    """Second moment recomputed from the momentum gradient of the evolved
    amplitude, squared after assembly rather than channel by channel.

    Per node the gradient has a component along the transverse mode,
    g = t^alpha (-i)^beta lambda' chi E_{a,a} + chi' E_{a,1}, and an
    orthogonal component chi E_{a,1} of squared norm Phi, so the integrand is
    |g|^2 + chi^2 |E_{a,1}|^2 Phi.  Equals the channel sum up to rounding;
    kept as an independent consistency path.
    """
    tab = _table(model, profile, grid, rule, table)
    a = order.alpha
    (eaa,), (ea1,) = _ml_over_times(order, tab, [t])
    with np.errstate(over="ignore", invalid="ignore"):
        g = t**a * neg_i_power(order.beta) * tab.dlam * tab.chi_vals * eaa + tab.dchi_vals * ea1
        dens = np.abs(g) ** 2 + tab.chi_vals**2 * np.abs(ea1) ** 2 * tab.cap
    return _fsum((tab.rule.weights * dens).tolist())


def msd_naber_leading(
    alpha: float,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    table: Optional[SpectralTable] = None,
) -> float:
    """Ballistic coefficient on the diagonal beta = alpha, the residue pair
    of the A channel at t = 1:

        msd(t) ~ t^2 (1/alpha^2) Int lambda^(2(1-alpha)/alpha) (lambda')^2 chi^2 dk.
    """
    tab = _table(model, profile, grid, rule, table)
    return _split(FractionalOrder(alpha, alpha), tab, 1.0, "A", [(0, 0)])


def msd_case2_leading(
    alpha: float,
    model: ModelParams,
    profile: ChiProfile,
    grid: HalfLineGrid,
    rule: QuadratureRule,
    table: Optional[SpectralTable] = None,
) -> float:
    """Decay coefficient for beta > alpha, the algebraic pairs of order
    t^(-2 alpha) of every channel at t = 1; from E_{a,a}(z) ~ -z^-2/Gamma(-alpha)
    and E_{a,1}(z) ~ -z^-1/Gamma(1-alpha), and independent of beta:

        t^(2 alpha) msd(t) -> (1/Gamma(-alpha)^2) Int (lambda')^2 lambda^-4 chi^2 dk
                            + (1/Gamma(1-alpha)^2) Int ((chi')^2 + chi^2 Phi) lambda^-2 dk
                            + (2/(Gamma(-alpha) Gamma(1-alpha))) Int lambda' lambda^-3 chi chi' dk.

    At alpha = 1/2 the reciprocal-gamma factors are 1/(4 pi), 1/pi and
    -1/pi.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"decay coefficient requires alpha in (0, 1), got {alpha!r}")
    tab = _table(model, profile, grid, rule, table)
    order = FractionalOrder(alpha, 1.0)
    return math.fsum(_split(order, tab, 1.0, name, _algebraic(name, 2)) for name in "ABCF")


def msd_trace(
    order: FractionalOrder,
    table: SpectralTable,
    times: Sequence[float],
) -> TransportTrace:
    """Total second moment over a time grid: msd_direct's channels at every
    time from one evaluator call over every (time, node) pair."""
    times = [float(t) for t in times]
    return TransportTrace(
        times=np.asarray(times),
        values=np.array([br.total for br in _msd_channels(order, table, times)]),
        method="Direct",
    )
