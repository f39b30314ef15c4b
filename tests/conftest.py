"""Shared fixtures.

The spectral table (64 momentum nodes, one stacked SVD of the
Legendre-Galerkin fiber problem, with the cap data from the same Ritz
pairs) is built once per session and shared read-only; SpectralTable is
frozen, and only its memo of channel weights fills in as the sweeps use it.
All transport tests run on the same b = 1, window [1, 2] setup that the CLI
uses as its default.
"""
import sys

import pytest

from tfedge import (
    ChiProfile,
    ModelParams,
    build_spectral_table,
    gauss_legendre_rule,
    make_grid,
)


@pytest.fixture(scope="session")
def model():
    return ModelParams(b=1.0)


@pytest.fixture(scope="session")
def profile():
    return ChiProfile(1.0, 2.0)


@pytest.fixture(scope="session")
def grid(model):
    # window reaches k = 2; auto length gives L = 14 at b = 1
    return make_grid(model, 2.0)


@pytest.fixture(scope="session")
def rule():
    return gauss_legendre_rule(1.0, 2.0, 64)


@pytest.fixture(scope="session")
def table(model, profile, grid, rule):
    return build_spectral_table(model, profile, grid, rule)


def pytest_report_header(config):
    """numpy and its BLAS: the bit-for-bit trace tests rest on the BLAS dot
    kernel that sums each Mittag-Leffler quadrature row."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} {blas.get('version', '')}".rstrip()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance one-liners after the normal test report."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
