"""Command line front end.

Subcommands map one-to-one onto the library layers: ml-eval prints a single
special-function value, spectrum writes the band data at the quadrature
nodes, current and msd sweep the transport observables over a log time
grid, regimes runs the growth/plateau/decay classification against fitted
slopes, and verify runs the norm-bound and memory-derivative certification.

Configuration comes from an INI file (--config) plus command line overrides
of the form --section.key=value, applied in that order.  All tabular output
is RFC-4180 style CSV with 17 significant digit floats, '.' decimal
separator, and CRLF line endings, so repeated runs diff byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .edge_current import (
    FractionalOrder,
    _band_roots,
    _current_values,
    build_spectral_table,
    classify_regime,
    current_asymptotic_case1,
    current_asymptotic_case2,
    current_trace,
    decay_exponent,
    fit_exponent,
    gauss_legendre_rule,
    log_current_case1,
)
from .errors import ConfigError, OverflowGuard, TfedgeError
from .fiber_spectrum import HalfLineGrid, ModelParams, auto_length
from .mittag_leffler import MLParams, ml_eval
from .msd import _msd_channels, packet_norm_sq
from .wavepacket import ChiProfile, validate_support
from .wellposed import ModeSpectrum, caputo_residual, certify_bounds

__all__ = ["RunConfig", "parse_config", "emit_csv", "main"]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; defaults describe the reference window."""

    b: float = 1.0
    alpha: float = 0.5
    beta: float = 0.5
    k_min: float = 1.0
    k_max: float = 2.0
    amplitude: float = 1.0
    L: Optional[float] = None  # None means choose from the window
    n_nodes: int = 64
    t_min: float = 1.0
    t_max: float = 1e4
    n_samples: int = 60
    path: str = ""
    normalize: bool = False


def _auto_or_float(raw: str) -> Optional[float]:
    return None if raw.strip().lower() == "auto" else float(raw)


def _flag(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _positive(v) -> bool:
    return v > 0.0 and math.isfinite(v)


def _unit(v) -> bool:
    return 0.0 < v <= 1.0


# "section.key" -> (RunConfig field, parser, what the parser expects, bound,
# rule the bound states).  A parser's ValueError becomes "<key> must be
# <expected>"; a value outside its bound "<key> <rule>".  The bounds that
# tie two fields together (k_min < k_max, t_max > t_min) are in parse_config.
_KEYS = {
    "model.b": ("b", float, "a number", _positive, "must be positive"),
    "order.alpha": ("alpha", float, "a number", _unit, "must lie in (0, 1]"),
    "order.beta": ("beta", float, "a number", _unit, "must lie in (0, 1]"),
    "chi.k_min": ("k_min", float, "a number", None, None),
    "chi.k_max": ("k_max", float, "a number", None, None),
    "chi.amplitude": ("amplitude", float, "a number", _positive, "must be positive"),
    "grid.L": (
        "L", _auto_or_float, "a number",
        lambda v: v is None or _positive(v), "must be positive or 'auto'",
    ),
    # leggauss holds an n x n matrix, 512 MiB at 8 192; a rule without it may lift the bound
    "quad.n_nodes": ("n_nodes", int, "an integer", lambda v: 32 <= v <= 8192, "must be an integer from 32 to 8192"),
    "time.t_min": ("t_min", float, "a number", _positive, "must be positive"),
    "time.t_max": ("t_max", float, "a number", None, None),
    "time.n_samples": ("n_samples", int, "an integer", lambda v: v >= 2, "must be an integer >= 2"),
    "output.path": ("path", str, None, None, None),
    "output.normalize": ("normalize", _flag, "a boolean", None, None),
}
_SECTIONS = {key.partition(".")[0] for key in _KEYS}


def parse_config(
    config_path: Optional[str],
    overrides: Optional[Dict[Tuple[str, str], str]] = None,
) -> RunConfig:
    """Merge defaults, an optional INI file, and explicit overrides.

    Unknown sections or keys are rejected rather than ignored so a typo in
    a config file cannot silently run with defaults.
    """
    values: Dict[str, str] = {}
    if config_path is not None:
        parser = configparser.ConfigParser()
        # keep key case: grid.L must not silently become grid.l
        parser.optionxform = str  # type: ignore[method-assign]
        read = parser.read(config_path)
        if not read:
            raise ConfigError(f"config file not found: {config_path}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                values[f"{section}.{key}"] = raw
    for (section, key), raw in (overrides or {}).items():
        values[f"{section}.{key}"] = raw
    for key in values:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key}")

    kw = {}
    for key, raw in values.items():
        field, parse, expected, _, _ = _KEYS[key]
        try:
            kw[field] = parse(raw)
        except ValueError:
            raise ConfigError(f"{key} must be {expected}, got {raw!r}") from None
    cfg = RunConfig(**kw)
    for key, (field, _, _, bound, rule) in _KEYS.items():
        if bound is not None and not bound(getattr(cfg, field)):
            raise ConfigError(f"{key} {rule}")
    if not (math.isfinite(cfg.k_min) and math.isfinite(cfg.k_max) and cfg.k_min < cfg.k_max):
        raise ConfigError("chi.k_min must be less than chi.k_max")
    if not (cfg.t_max > cfg.t_min and math.isfinite(cfg.t_max)):
        raise ConfigError("time.t_max must exceed time.t_min")
    return cfg


def _parse_override_tokens(tokens: Sequence[str]) -> Dict[Tuple[str, str], str]:
    """Turn leftover argv tokens (--section.key=value or --section.key value)
    into an override map, rejecting anything else."""
    out: Dict[Tuple[str, str], str] = {}
    i = 0
    toks = list(tokens)
    while i < len(toks):
        tok = toks[i]
        if not (tok.startswith("--") and "." in tok):
            raise ConfigError(f"unrecognized argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            name, raw = body.split("=", 1)
        else:
            if i + 1 >= len(toks):
                raise ConfigError(f"missing value for override {tok!r}")
            name, raw = body, toks[i + 1]
            i += 1
        section, _, key = name.partition(".")
        if not section or not key:
            raise ConfigError(f"override {tok!r} must look like --section.key=value")
        out[(section, key)] = raw
        i += 1
    return out


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def emit_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write rows as CSV to path, or to stdout when path is empty.

    CRLF line endings, header first, cells formatted with 17 significant
    digits; rows are emitted in the order given, so callers own the primary
    key ordering.
    """

    def write(stream):
        writer = csv.writer(stream, lineterminator="\r\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])

    if path:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)


# ---------------------------------------------------------------------------
# shared assembly
# ---------------------------------------------------------------------------


def _assemble(cfg: RunConfig):
    """The run's order pair and its spectral table, on a window validate_support admits."""
    model = ModelParams(cfg.b)
    profile = ChiProfile(cfg.k_min, cfg.k_max, cfg.amplitude)
    k_ref = max(abs(cfg.k_min), abs(cfg.k_max))
    grid = HalfLineGrid(L=auto_length(model, k_ref) if cfg.L is None else cfg.L)
    validate_support(model, profile, grid)
    rule = gauss_legendre_rule(cfg.k_min, cfg.k_max, cfg.n_nodes)
    table = build_spectral_table(model, profile, grid, rule)
    return FractionalOrder(cfg.alpha, cfg.beta), table


def _times(cfg: RunConfig) -> np.ndarray:
    return np.geomspace(cfg.t_min, cfg.t_max, cfg.n_samples)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ml_eval(args) -> int:
    value = ml_eval(MLParams(args.alpha, args.sigma), complex(args.re, args.im))
    print(
        f"E[alpha={args.alpha:g}, sigma={args.sigma:g}]({args.re:g}{args.im:+g}j) = "
        f"{value.real:.17g}{value.imag:+.17g}j"
    )
    return 0


def cmd_spectrum(cfg: RunConfig, with_cap: bool) -> int:
    """The band data the observables integrate: one row per quadrature node."""
    _, table = _assemble(cfg)
    columns = [table.rule.nodes, table.lam, table.dlam] + ([table.cap] if with_cap else [])
    rows = list(zip(*columns))
    header = ["k", "lambda1", "dlambda1"] + (["phi_cap"] if with_cap else [])
    emit_csv(cfg.path, header, rows)
    return 0


def _asymptotic_companion(order, table):
    """The closed-form model matching the regime of the order pair."""
    if order.beta <= order.alpha:
        return lambda t: current_asymptotic_case1(order, table, t)
    return lambda t: current_asymptotic_case2(order, table, t)


def cmd_current(cfg: RunConfig) -> int:
    """J at every time from one sweep; row by row once a time leaves double range."""
    order, table = _assemble(cfg)
    regime = classify_regime(order)
    companion = _asymptotic_companion(order, table)
    times = [float(t) for t in _times(cfg)]
    try:
        swept = _current_values(order, table, times)
    except OverflowGuard:
        swept = [None] * len(times)

    def row(t, jd):
        try:
            if jd is None:
                jd = _current_values(order, table, [t])[0]
        except OverflowGuard:
            # past double range only the log of the leading model is reported
            _, logv = log_current_case1(order, table, t)
            return (t, None, None, logv, regime, "AsymptoticCase1")
        try:
            ja = companion(t)
        except TfedgeError:
            ja = None
        logj = math.log(abs(jd)) if jd != 0.0 else None
        return (t, jd, ja, logj, regime, "Direct")

    rows = [row(t, jd) for t, jd in zip(times, swept)]
    emit_csv(
        cfg.path,
        ["t", "J_direct", "J_asymptotic", "logJ", "regime", "method"],
        rows,
    )
    return 0


def cmd_msd(cfg: RunConfig) -> int:
    order, table = _assemble(cfg)
    norm = packet_norm_sq(table) if cfg.normalize else 1.0
    # no closed-form spreading model in the growing regime
    leading = {"AsymptoticallyConstant": "Naber", "PowerLawDecay": "AsymptoticCase2"}.get(classify_regime(order))

    times = [float(t) for t in _times(cfg)]
    rows = [
        (t, br.A / norm, br.B / norm, br.C / norm, br.F / norm, br.total / norm, leading)
        for t, br in zip(times, _msd_channels(order, table, times))
    ]
    emit_csv(
        cfg.path,
        ["t", "A", "B", "C", "F", "total", "leading_model"],
        rows,
    )
    return 0


def cmd_regimes(cfg: RunConfig) -> int:
    alpha = cfg.alpha
    betas = dict.fromkeys((0.5 * alpha, alpha, min(1.0, 1.5 * alpha)))

    _, table = _assemble(cfg)
    rows = []
    for beta in betas:
        order = FractionalOrder(alpha, beta)
        predicted = classify_regime(order)
        try:
            (lo, hi), mode, target, tol = _regime_fit(order, table)
            trace = current_trace(order, table, np.geomspace(lo, hi, 13))
            fit = fit_exponent(trace, (lo, hi), mode)
            rows.append((beta, predicted, fit.slope, abs(fit.slope - target) <= tol))
        except TfedgeError as exc:
            print(f"warning: regime row beta={beta:g} failed: {exc}", file=sys.stderr)
            rows.append((beta, predicted, None, False))
    emit_csv(cfg.path, ["beta", "regime_predicted", "fitted_slope", "pass"], rows)
    return 0


def _regime_fit(order, table):
    """(fit window, fit mode, target slope, tolerance) of the regime of order."""
    regime = classify_regime(order)
    if regime == "ExponentialGrowth":
        rate = 2.0 * _band_roots(table, order.alpha)[1][3] * math.cos(order.theta)
        return (20.0, 80.0), "semilog", rate, 0.10 * abs(rate)
    if regime == "AsymptoticallyConstant":
        return (1e2, 1e4), "loglog", 0.0, 0.05
    target = decay_exponent(order)
    return (1e2, 1e4), "loglog", target, 0.05 * abs(target)


# representative order pairs for the certification run; alpha = 0.8 keeps the
# short-time transient small enough that the t -> 0 check is meaningful
_VERIFY_ORDERS = (
    FractionalOrder(0.8, 0.4),
    FractionalOrder(0.8, 0.8),
    FractionalOrder(0.8, 1.0),
)
_VERIFY_SPECTRUM = ModeSpectrum(lambdas=(2.0, 5.0, 11.0), weights=(1.0, 0.5, 0.25))


def cmd_verify(cfg: RunConfig) -> int:
    rows = []
    all_ok = True
    for order in _VERIFY_ORDERS:
        regime = classify_regime(order)
        if regime == "ExponentialGrowth":
            # keep the top-mode exponent inside double range
            times = np.geomspace(1e-2, 20.0, 40)
        else:
            times = np.geomspace(1e-2, 1e3, 40)
        cert = certify_bounds(order, _VERIFY_SPECTRUM, times)
        residual = max(
            caputo_residual(order, 2.0, T) for T in (0.5, 1.0, 2.0)
        )
        ok = bool(cert.passed and residual <= 1e-3)
        all_ok = all_ok and ok
        rows.append(
            (
                order.alpha,
                order.beta,
                regime,
                cert.constant,
                cert.refined_constant,
                cert.rel_drift,
                # about the digits caputo_residual fixes (see its docstring)
                f"{residual:.6g}",
                ok,
            )
        )
        print(
            f"{regime:<24} C={cert.constant:.6g} drift={cert.rel_drift:.3e} "
            f"residual={residual:.3e} {'PASS' if ok else 'FAIL'}"
        )
    if cfg.path:
        emit_csv(
            cfg.path,
            [
                "alpha",
                "beta",
                "regime",
                "C",
                "C_refined",
                "rel_drift",
                "caputo_residual",
                "pass",
            ],
            rows,
        )
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfedge",
        description="Edge transport of a magnetic half-plane under "
        "fractional-order dynamics",
    )
    parser.add_argument("--config", help="INI file with run parameters")
    sub = parser.add_subparsers(dest="command", required=True)

    ml = sub.add_parser("ml-eval", help="evaluate the Mittag-Leffler function")
    ml.add_argument("--alpha", type=float, required=True)
    ml.add_argument("--sigma", type=float, default=1.0)
    ml.add_argument("--re", type=float, required=True)
    ml.add_argument("--im", type=float, default=0.0)

    sp = sub.add_parser("spectrum", help="band data at the quadrature nodes of the window")
    sp.add_argument("--with-cap", action="store_true", help="include the mode deformation norm")

    sub.add_parser("current", help="edge current over a log time grid")
    sub.add_parser("msd", help="second-moment spreading over a log time grid")

    sub.add_parser("regimes", help="classify and fit the three order regimes")

    sub.add_parser("verify", help="norm-bound and memory-derivative certification")

    args, leftovers = parser.parse_known_args(argv)
    try:
        if args.command == "ml-eval":
            if leftovers:
                raise ConfigError(f"unrecognized argument {leftovers[0]!r}")
            return cmd_ml_eval(args)
        overrides = _parse_override_tokens(leftovers)
        cfg = parse_config(args.config, overrides)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.with_cap)
        if args.command == "current":
            return cmd_current(cfg)
        if args.command == "msd":
            return cmd_msd(cfg)
        if args.command == "regimes":
            return cmd_regimes(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TfedgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
