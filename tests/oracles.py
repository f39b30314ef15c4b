"""Frozen numbers the tests compare against.

Two kinds of entries, kept apart on purpose:

INDEPENDENT_* values were produced by the reference implementations in
_reference.py (mpmath series, Richardson-extrapolated finite differences)
and written down here so the cheap everyday test run does not pay for the
high-precision recomputation.  test_fiber_spectrum and test_mittag_leffler
each recompute a couple of them live to prove the frozen copies are honest.

PIN_* values are regression pins: outputs of this package at freeze time,
recorded verbatim.  They assert that refactors do not silently move
results, not that the results are true; the truth claims live in the
independent values and in the identity-based tests.
"""

# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

# lowest Dirichlet eigenvalue of -d''/dx'' + (b x - k)^2, from
# _reference.lam_reference (FD + Richardson, agrees with itself to ~1e-9;
# the exact _reference.lam_exact values differ from these by up to 7e-10)
INDEPENDENT_LAM = {
    (1.0, 0.0): 2.9999999996594995,
    (1.0, 1.0): 1.4684677436923588,
    (1.0, 2.0): 1.0357633948511744,
    (1.0, 8.0): 1.0000000000107498,
    (1.0, -3.0): 17.52038909785745,
    (2.0, 0.0): 5.999999999319001,
}

# E_{alpha,sigma}(z) from _reference.ml_reference at the dps noted; the
# alpha = 1 row doubles as a self-check of the reference (it equals
# exp(-25+2j) to 16 digits).  The last column is the tolerance granted to
# the production evaluator: series-region points get 1e-10, while the
# |z| = 13 row exercises the large-argument expansion, whose smallest
# retained term caps the achievable accuracy near 4e-10 at that radius.
INDEPENDENT_ML = [
    # (alpha, sigma, z, value, dps used, rtol)
    (0.5, 1.0, -1.0, 0.427583576155807 + 0.0j, 40, 1e-10),
    (0.5, 0.5, 2.0 + 3.0j, 0.03825293630150622 - 0.0018449148598851835j, 60, 1e-10),
    (0.8, 1.0, -8.0 + 5.0j, 0.020836456138320355 + 0.015464235187709218j, 80, 1e-10),
    (0.8, 1.0, -12.0 + 5.0j, 0.016659127717236405 + 0.007754845367118709j, 80, 1e-8),
    (0.8, 0.8, 9.0j, -0.005410367557694341 + 0.0038307087692680763j, 80, 1e-10),
    (0.3, 1.0, -6.0, 0.11646113163059887 + 0.0j, 300, 1e-10),
    (0.3, 0.3, 4.0 - 3.0j, 0.0017868702336155324 + 0.011007711055735697j, 300, 1e-10),
    (1.0, 1.0, -25.0 + 2.0j, -5.779423905549071e-12 + 1.2628271620311297e-11j, 60, 1e-10),
]

# ---------------------------------------------------------------------------
# regression pins (this package, b = 1, window [1, 2], L = 14, 64-node
# Gauss-Legendre, Legendre-Galerkin band data).  Recorded where the exact
# parabolic-cylinder eigenvalues (lam_exact) and Richardson-extrapolated
# finite-difference tables (band_fd at n = 2000, 4001, 8003, 16007) agree
# with them to 1e-13 (lambda_1), 5e-13 relative (lambda_1') and 3e-11
# relative (J, MSD); the P1 values they replace were 1e-8 to 6e-6 off
# ---------------------------------------------------------------------------

PIN_GRID_L = 14.0
PIN_LAM1_AT_0 = 3.0000000000000604
PIN_LAM1_AT_8 = 1.000000000000003
PIN_LAM1_WINDOW = {
    1.0: (1.4684677434670546, -0.8767800798018055),
    1.5: (1.1574798720782051, -0.39845386785202436),
    2.0: (1.0357633946055582, -0.12296366274004027),
}
PIN_PACKET_NORM_SQ = 0.06654306042249815

PIN_SCHRODINGER_CONST = -0.02730890071547005
PIN_J_DIRECT_55_AT_2 = -0.25683152602889686
PIN_J_DIRECT_55_AT_1E3 = -0.26240078835666003
PIN_J_NABER_AT_1E3 = -0.26240113302265916

PIN_MSD_55_AT_1E3 = 72552.20283287994
PIN_MSD_NABER_LEAD = 0.07254896998654621
PIN_MSD_51_AT_1E3 = 0.0001951597994577804
PIN_MSD_CASE2_LEAD = 0.1950115726096532

PIN_ML_HALF_AT_M1 = 0.4275835761558048
PIN_ML_ONE_AT_2 = 7.389056098930645
