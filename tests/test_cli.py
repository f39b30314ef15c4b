"""Config parsing, CSV emission, subcommand wiring, exit codes."""
import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from tfedge import cli
from tfedge.cli import RunConfig, emit_csv, main, parse_config
from tfedge.errors import ConfigError, OverflowGuard


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_defaults_describe_the_reference_window():
    cfg = parse_config(None)
    assert cfg == RunConfig()
    assert cfg.alpha == 0.5 and cfg.beta == 0.5
    assert (cfg.k_min, cfg.k_max) == (1.0, 2.0)
    assert cfg.L is None


def test_file_and_override_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[order]\nalpha = 0.8\nbeta = 0.4\n[quad]\nn_nodes = 48\n[grid]\nL = auto\n")
    cfg = parse_config(str(ini), {("order", "beta"): "0.6", ("grid", "L"): "11.5"})
    assert cfg.alpha == 0.8  # from the file
    assert cfg.beta == 0.6  # override wins
    assert cfg.n_nodes == 48
    assert cfg.L == 11.5


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "missing.ini"))
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[rocket]\nthrust = 7\n")
    with pytest.raises(ConfigError, match=r"unknown config section"):
        parse_config(str(bad_section))
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[order]\ngamma = 0.5\n")
    with pytest.raises(ConfigError, match=r"unknown config key order.gamma"):
        parse_config(str(bad_key))


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({("order", "alpha"): "1.5"}, "order.alpha must lie in (0, 1]"),
        ({("model", "b"): "-1"}, "model.b must be positive"),
        ({("chi", "k_min"): "3"}, "chi.k_min must be less than chi.k_max"),
        # the band basis follows grid.L; there is no grid.n any more
        ({("grid", "n"): "800"}, "unknown config key grid.n"),
        ({("grid", "L"): "-4"}, "grid.L must be positive or 'auto'"),
        ({("quad", "n_nodes"): "8"}, "quad.n_nodes must be an integer from 32 to 8192"),
        ({("time", "t_min"): "0"}, "time.t_min must be positive"),
        ({("time", "t_max"): "0.5"}, "time.t_max must exceed time.t_min"),
        ({("time", "n_samples"): "1"}, "time.n_samples must be an integer >= 2"),
        ({("order", "alpha"): "fast"}, "order.alpha must be a number"),
        ({("quad", "n_nodes"): "4.5"}, "quad.n_nodes must be an integer"),
        ({("output", "normalize"): "maybe"}, "output.normalize must be a boolean"),
        ({("chi", "amplitude"): "0"}, "chi.amplitude must be positive"),
        # numpy's Gauss-Legendre rule would hold an n x n float64 matrix
        ({("quad", "n_nodes"): "8193"}, "quad.n_nodes must be an integer from 32 to 8192"),
    ],
)
def test_validation_messages(overrides, message):
    with pytest.raises(ConfigError) as err:
        parse_config(None, overrides)
    assert message in str(err.value)


def test_every_setting_is_declared_once():
    # the key table and RunConfig name the same fields, so a setting cannot
    # be added to one without the other
    assert sorted(entry[0] for entry in cli._KEYS.values()) == sorted(
        field.name for field in dataclasses.fields(RunConfig)
    )


def test_override_token_parsing():
    got = cli._parse_override_tokens(
        ["--order.alpha=0.7", "--time.t_max", "50", "--output.normalize=true"]
    )
    assert got == {
        ("order", "alpha"): "0.7",
        ("time", "t_max"): "50",
        ("output", "normalize"): "true",
    }
    with pytest.raises(ConfigError):
        cli._parse_override_tokens(["order.alpha=0.7"])  # missing the dashes
    with pytest.raises(ConfigError):
        cli._parse_override_tokens(["--order.alpha"])  # dangling value


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def test_csv_formatting(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(str(path), ["a", "b", "c", "d"], [(1.0 / 3.0, None, True, 7)])
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 2  # header + one row, CRLF endings
    rows = read_csv(str(path))
    assert rows[0] == ["a", "b", "c", "d"]
    assert float(rows[1][0]) == 1.0 / 3.0  # 17 digits round-trips exactly
    assert rows[1][1] == ""
    assert rows[1][2] == "true"
    assert rows[1][3] == "7"


def test_csv_to_stdout(capsys):
    emit_csv("", ["x"], [(2.5,)])
    out = capsys.readouterr().out
    assert out.startswith("x")
    assert "2.5" in out


# ---------------------------------------------------------------------------
# subcommands (small grids to stay quick)
# ---------------------------------------------------------------------------

FAST = [
    "--quad.n_nodes", "32",
    "--time.n_samples", "3",
]


def test_ml_eval_command(capsys):
    rc = main(["ml-eval", "--alpha", "1", "--re", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "E[alpha=1, sigma=1]" in out
    value = float(out.split("=")[-1].strip().rstrip("j").rsplit("+", 1)[0])
    assert value == pytest.approx(math.e, rel=1e-12)
    rc = main(["ml-eval", "--alpha", "1", "--re", "1", "--bogus", "2"])
    assert rc == 2


def test_ml_eval_runs_at_one_accuracy(capsys):
    # the evaluator has one tolerance, so ml-eval takes no --rel-tol, and
    # the README's example prints what the command prints
    rc = main(["ml-eval", "--alpha", "0.5", "--re", "-4", "--rel-tol", "1e-6"])
    assert rc == 2
    assert "unrecognized argument '--rel-tol'" in capsys.readouterr().err
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("tfedge ml-eval --alpha 0.5 --re -4.0\n# ", 1)[1].split("\n", 1)[0]
    assert main(["ml-eval", "--alpha", "0.5", "--re", "-4.0"]) == 0
    assert capsys.readouterr().out == example + "\n"


def test_ml_eval_takes_sigma_up_to_one_plus_alpha(capsys):
    # sigma <= 1 + alpha is the evaluator's domain: its edge sigma = 1.5 at
    # alpha = 1/2 within 1e-12 of the mpmath series, and the README's example
    # prints what the command prints; a sigma past it exits 3 with
    # DomainError's message, a value past double range with OverflowGuard's
    from _reference import ml_reference

    rc = main(["ml-eval", "--alpha", "0.5", "--sigma", "1.5", "--re", "-1"])
    assert rc == 0
    out = capsys.readouterr().out
    want = ml_reference(0.5, 1.5, -1.0, 40)
    assert abs(complex(out.split("=")[-1].strip()) - want) <= 1e-12 * abs(want)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert readme.split("tfedge ml-eval --alpha 0.5 --sigma 1.5 --re -1\n# ", 1)[1].split("\n", 1)[0] + "\n" == out
    rc = main(["ml-eval", "--alpha", "0.5", "--sigma", "3.6", "--re", "-1"])
    assert rc == 3
    assert "error: MLParams.sigma must be at most 1 + alpha, got 3.6 at alpha = 0.5" in capsys.readouterr().err
    rc = main(["ml-eval", "--alpha", "0.5", "--sigma", "1.5", "--re", "30"])
    assert rc == 3
    assert "error: E_{0.5,1.5}((30+0j)) exceeds double range" in capsys.readouterr().err


def test_ml_eval_refuses_a_non_finite_z(capsys):
    # a NaN or infinite component is a domain error (exit 3), not a value
    # past double range
    assert main(["ml-eval", "--alpha", "0.5", "--re", "nan"]) == 3
    assert "error: E_{0.5,1.0} needs a finite z, got (nan+0j)" in capsys.readouterr().err
    assert main(["ml-eval", "--alpha", "0.5", "--re", "1", "--im", "inf"]) == 3
    assert "error: E_{0.5,1.0} needs a finite z, got (1+infj)" in capsys.readouterr().err


def test_spectrum_command(tmp_path):
    # one row per quadrature node: the table the observables integrate
    path = tmp_path / "band.csv"
    rc = main(["spectrum", "--quad.n_nodes", "32", "--output.path", str(path)])
    assert rc == 0
    rows = read_csv(str(path))
    assert rows[0] == ["k", "lambda1", "dlambda1"]
    assert len(rows) == 33
    ks = [float(r[0]) for r in rows[1:]]
    assert 1.0 < ks[0] and ks[-1] < 2.0
    lams = [float(r[1]) for r in rows[1:]]
    assert all(a > b for a, b in zip(lams, lams[1:]))  # decreasing in k
    assert all(float(r[2]) < 0.0 for r in rows[1:])
    # a time setting does not move the momentum rows
    other = tmp_path / "band5.csv"
    rc = main(["spectrum", "--quad.n_nodes", "32", "--time.n_samples", "5",
               "--output.path", str(other)])
    assert rc == 0
    assert other.read_bytes() == path.read_bytes()


def test_current_command(tmp_path):
    path = tmp_path / "cur.csv"
    # late window: the plateau correction is small there, so the model
    # column must track the exact kernel closely even on 32 nodes
    rc = main(
        ["current", *FAST, "--time.t_min", "1000", "--time.t_max", "10000",
         "--output.path", str(path)]
    )
    assert rc == 0
    rows = read_csv(str(path))
    assert rows[0] == ["t", "J_direct", "J_asymptotic", "logJ", "regime", "method"]
    assert len(rows) == 4
    for r in rows[1:]:
        assert r[4] == "AsymptoticallyConstant"
        jd, ja = float(r[1]), float(r[2])
        assert jd < 0.0
        assert abs(ja - jd) <= 5e-2 * abs(jd)


@pytest.mark.parametrize("beta", [0.5, 0.25])
def test_current_is_one_sweep_unless_a_row_overflows(beta, tmp_path, monkeypatch):
    # every J of `tfedge current` comes from one evaluator call over all its
    # times; only when that sweep leaves double range (the growth regime,
    # beta < alpha) are the rows taken one by one.  Either way each J_direct
    # is current_direct's at its time, bit for bit
    import tfedge.edge_current as ec

    real, shapes = ec._ml_values, []

    def counted(alpha, sigmas, times, lam, b, roots=None):
        shapes.append((len(times), np.size(lam)))
        return real(alpha, sigmas, times, lam, b, roots)

    monkeypatch.setattr(ec, "_ml_values", counted)
    path = tmp_path / "cur.csv"
    order = ["--order.alpha", "0.5", "--order.beta", str(beta)]
    assert main(["current", "--quad.n_nodes", "32", *order, "--output.path", str(path)]) == 0
    rows = read_csv(str(path))[1:]
    direct = [r for r in rows if r[5] == "Direct"]
    if beta < 0.5:
        assert shapes == [(60, 32)] + [(1, 32)] * 60
        assert 0 < len(direct) < 60
    else:
        assert shapes == [(60, 32)]
        assert len(direct) == 60
    cfg = parse_config(None, {("order", "alpha"): "0.5", ("order", "beta"): str(beta), ("quad", "n_nodes"): "32"})
    fractional, table = cli._assemble(cfg)
    for r in direct[::7]:
        t = float(r[0])
        assert float(r[1]) == ec.current_direct(fractional, None, None, None, None, t, table)


def test_msd_command_normalized(tmp_path):
    path = tmp_path / "msd.csv"
    rc = main(
        ["msd", *FAST, "--time.t_min", "100", "--time.t_max", "1000",
         "--output.normalize", "true", "--output.path", str(path)]
    )
    assert rc == 0
    rows = read_csv(str(path))
    assert rows[0] == ["t", "A", "B", "C", "F", "total", "leading_model"]
    for r in rows[1:]:
        assert r[6] == "Naber"
        total = float(r[5])
        parts = sum(float(r[i]) for i in (1, 2, 3, 4))
        assert total == pytest.approx(parts, rel=1e-12)


def test_regimes_default_rows_pass(tmp_path):
    # the default alpha = 1/2 run: growth at beta = 1/4, plateau at 1/2 and
    # t^-(1+4 alpha) decay at 3/4 (the t^-(1+3 alpha) order vanishes there)
    path = tmp_path / "reg.csv"
    assert main(["regimes", "--output.path", str(path)]) == 0
    rows = read_csv(str(path))
    assert [r[1] for r in rows[1:]] == [
        "ExponentialGrowth", "AsymptoticallyConstant", "PowerLawDecay",
    ]
    assert all(r[3] == "true" for r in rows[1:]), rows


def test_regimes_keeps_a_failing_row(tmp_path, monkeypatch, capsys):
    # a row whose trace fails is written with no slope and pass false, the
    # other rows are fitted, and the run warns on stderr and exits 0
    real = cli.current_trace

    def trace(order, table, times):
        if order.beta == 0.25:
            raise OverflowGuard("the growth row past double range")
        return real(order, table, times)

    monkeypatch.setattr(cli, "current_trace", trace)
    path = tmp_path / "reg.csv"
    assert main(["regimes", "--quad.n_nodes", "32", "--output.path", str(path)]) == 0
    rows = read_csv(str(path))[1:]
    assert rows[0] == ["0.25", "ExponentialGrowth", "", "false"]
    assert all(r[2] != "" for r in rows[1:]) and len(rows) == 3
    err = capsys.readouterr().err
    assert "warning: regime row beta=0.25 failed: the growth row past double range" in err


def test_verify_command(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 3
    assert all("PASS" in l for l in lines)
    assert {l.split()[0] for l in lines} == {
        "ExponentialGrowth", "AsymptoticallyConstant", "PowerLawDecay"
    }


def test_verify_residual_cell_carries_six_digits(tmp_path):
    # caputo_residual fixes only its first six or seven digits (rounding u
    # by one unit in the last place moves it by up to 1.1e-6 relative), so
    # the CSV cell carries six significant digits
    from tfedge.wellposed import caputo_residual

    path = tmp_path / "verify.csv"
    assert main(["verify", "--output.path", str(path)]) == 0
    rows = read_csv(str(path))
    column = rows[0].index("caputo_residual")
    assert len(rows) == 1 + len(cli._VERIFY_ORDERS)
    for row, order in zip(rows[1:], cli._VERIFY_ORDERS):
        residual = max(caputo_residual(order, 2.0, T) for T in (0.5, 1.0, 2.0))
        assert row[column] == f"{residual:.6g}", row
        assert 0.0 < float(row[column]) <= 1e-3


def test_exit_codes(tmp_path, capsys):
    assert main(["current", "--order.alpha", "7"]) == 2  # config rejection
    # a grid too short for the window is a domain failure, not a config one
    assert main(["current", *FAST, "--grid.L", "2"]) == 3
    # so is a field too weak for the fiber basis at its auto length, refused
    # before the basis is built: N = 2.6 L sqrt(b) = 2 167 at b = 1e-4, and
    # 2.2e151 at b = 1e-300, past any integer Gauss rule
    capsys.readouterr()
    for b, n in (("1e-4", "2167.05"), ("1e-300", "2.16438e+151")):
        assert main(["current", *FAST, "--model.b", b]) == 3
        assert f"N = 2.6 L sqrt(b) = {n} basis functions, more than 256" in capsys.readouterr().err
    # a window left of k = 0 lies outside the first band's admissible range;
    # every subcommand that builds a table refuses it
    window = ["--chi.k_min", "-2", "--chi.k_max", "-1", "--time.t_max", "10"]
    for command in ("current", "msd", "regimes", "spectrum"):
        assert main([command, *FAST, *window]) == 3
        assert "k_lo=-2.0: lambda_1 = 10.884333507 is not below 3b = 3.0" in capsys.readouterr().err


def test_run_to_run_identical_output(tmp_path):
    args = ["current", *FAST, "--time.t_min", "100", "--time.t_max", "1000"]
    p1 = tmp_path / "a.csv"
    assert main([*args, "--output.path", str(p1)]) == 0
    p2 = tmp_path / "b.csv"
    assert main([*args, "--output.path", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
def test_order_sweep_ends_in_an_exit_code(alpha, beta, tmp_path):
    # default times reach t = 1e4, far past double range in the growth
    # regime: current falls back to the log of the leading model, msd stops
    # with exit code 3, and no run ends in a traceback
    small = ["--quad.n_nodes", "32"]
    order = ["--order.alpha", str(alpha), "--order.beta", str(beta)]
    codes = {
        command: main([command, *small, *order, "--output.path", str(tmp_path / "out.csv")])
        for command in ("current", "msd", "regimes")
    }
    assert codes == {"current": 0, "msd": 3 if beta < alpha else 0, "regimes": 0}
