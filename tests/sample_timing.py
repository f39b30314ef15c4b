"""Per-sample timing of two tfedge source trees, with a bit-for-bit check.

    python tests/sample_timing.py OLD_SRC NEW_SRC [PASSES]

OLD_SRC and NEW_SRC are directories holding a `tfedge` package (for example
`src` of two checkouts).  Both trees are loaded into one process and every
case is timed in interleaved A/B passes (the tree that goes first
alternates from pass to pass), so a drift of the host's speed falls on both
alike.  The cases are one-time samples, as perfbench and the CLI's
per-time checks take them:

- current_direct, msd_direct and msd_assembled on perfbench's table (b = 1,
  window [1, 2], 32 Gauss nodes, n = 4000) at the orders and times where
  every node takes one route of the evaluator: the contour at t = 1e3, with
  the pole's residue at perfbench's spreading orders (0.8, 0.8) and (0.8,
  1) and without it off the principal sheet at (0.3, 1); the Taylor series
  at t = 0.01; the ray's three reaches at (1/2, 1); exp(z) at (1, 1);
- lone ml_eval calls on each route: the series, the contour's shifted rows
  (sigma = alpha, |z| >= 1, here with the residue) and unshifted ones (|z|
  < 1), the ray's three reaches, and exp(z).

Each case's route is read from NEW_SRC's evaluator before it is timed, and
the script stops if a case does not take the route it is named for.  Every
value of every case must be the same in both trees, bit for bit; the
script stops at the first that is not.  Prints one row per case: the best
and the median time per call of each tree over the passes, and new / old
of each (on a loaded host the best is the steadier).  pytest does not collect this file; the default 15 passes
take a few seconds on a 2-core host.
"""

import cmath
import math
import statistics
import struct
import sys
import warnings
from time import perf_counter

from ml_accuracy_scan import load

# calls per timed batch: a batch is about a millisecond
BATCH = 40


def table(tree):
    """perfbench's spectral table, built by the tree."""
    ec, fs = tree.edge_current, tree.fiber_spectrum
    model = fs.ModelParams(1.0)
    grid = fs.HalfLineGrid(L=fs.auto_length(model, 2.0), n=4000)
    rule = ec.gauss_legendre_rule(1.0, 2.0, 32)
    return ec.build_spectral_table(model, tree.wavepacket.ChiProfile(1.0, 2.0, 1.0), grid, rule)


# (label, route, alpha, beta, t): one-time samples of the observables
SAMPLES = [
    ("contour, plateau", "contour shifted + residue", 0.8, 0.8, 1e3),
    ("contour, decay", "contour shifted + residue", 0.8, 1.0, 1e3),
    ("contour, off the sheet", "contour shifted", 0.3, 1.0, 1e3),
    ("series", "series", 0.8, 0.8, 0.01),
    ("ray reach 0", ("ray", 0), 0.5, 1.0, 600.0),
    ("ray reach 1", ("ray", 1), 0.5, 1.0, 50.0),
    ("ray reach 2", ("ray", 2), 0.5, 1.0, 5.0),
    ("exp", "exp", 1.0, 1.0, 10.0),
]
# (label, route, alpha, sigma, z): lone ml_eval calls
LONE = [
    ("series", "series", 0.5, 1.0, cmath.rect(0.5, 1.0)),
    ("contour shifted + residue", "contour shifted + residue", 0.8, 0.8, cmath.rect(20.0, -0.4 * math.pi)),
    ("contour unshifted", "contour", 0.3, 0.3, cmath.rect(0.95, 0.5 * math.pi)),
    ("ray reach 0", ("ray", 0), 0.5, 1.0, cmath.rect(20.0, -0.5 * math.pi)),
    ("ray reach 1", ("ray", 1), 0.5, 1.0, cmath.rect(5.0, -0.5 * math.pi)),
    ("ray reach 2", ("ray", 2), 0.5, 1.0, cmath.rect(2.0, 0.5 * math.pi)),
    ("exp", "exp", 1.0, 1.0, complex(3.0, -2.0)),
]


def routes(tree, call):
    """The routes the tree's evaluator takes in call(): "series", ("ray",
    reach), "contour" (with " shifted" where it takes the shifted rows, and
    " + residue" where it adds the pole's residue), or "exp" where none of
    those is called."""
    ml = tree.mittag_leffler
    taken = set()
    originals = ml._taylor, ml._ray, ml._contour

    def on_taylor(w, coefficients):
        taken.add("series")
        return originals[0](w, coefficients)

    def on_ray(*args):
        taken.add(("ray", args[4]))
        return originals[1](*args)

    def on_contour(*args):
        taken.add("contour" + (" shifted" if args[-1] else "") + (" + residue" if args[5] is not None else ""))
        return originals[2](*args)

    ml._taylor, ml._ray, ml._contour = on_taylor, on_ray, on_contour
    try:
        call()
    finally:
        ml._taylor, ml._ray, ml._contour = originals
    return taken or {"exp"}


def bits(value):
    """The bytes of a float, a complex or an MSDBreakdown's five floats."""
    if isinstance(value, complex):
        return struct.pack("<dd", value.real, value.imag)
    if isinstance(value, float):
        return struct.pack("<d", value)
    return struct.pack("<5d", value.A, value.B, value.C, value.F, value.total)


def cases(tree, tab):
    """(kind, label, route, call) of every case, the calls on the tree."""
    ec, msd, ml = tree.edge_current, tree.msd, tree.mittag_leffler
    out = []
    for label, route, alpha, beta, t in SAMPLES:
        order = ec.FractionalOrder(alpha, beta)
        for name, fn in (("current_direct", ec.current_direct), ("msd_direct", msd.msd_direct),
                         ("msd_assembled", msd.msd_assembled)):
            out.append((name, label, route, lambda fn=fn, order=order, t=t: fn(order, None, None, None, None, t, tab)))
    for label, route, alpha, sigma, z in LONE:
        params = ml.MLParams(alpha, sigma)
        out.append(("ml_eval", label, route, lambda params=params, z=z: ml.ml_eval(params, z)))
    return out


def main(old_src, new_src, passes=15):
    trees = (load("tfedge_old", old_src), load("tfedge_new", new_src))
    tabs = [table(tree) for tree in trees]
    old, new = (cases(tree, tab) for tree, tab in zip(trees, tabs))
    for (kind, label, route, call), (_, _, _, call_old) in zip(new, old):
        taken = routes(trees[1], call)
        if taken != {route}:
            sys.exit(f"{kind} {label}: takes {sorted(map(str, taken))}, not {route}")
        if bits(call()) != bits(call_old()):
            sys.exit(f"{kind} {label}: the trees differ: {call_old()!r} against {call()!r}")
    times = [([], []) for _ in new]
    for p in range(passes):
        for i, pair in enumerate(zip(old, new)):
            for side in ((0, 1) if (p + i) % 2 else (1, 0)):
                call = pair[side][3]
                start = perf_counter()
                for _ in range(BATCH):
                    call()
                times[i][side].append((perf_counter() - start) / BATCH * 1e6)
    print(f"time per call in us, best and median of {passes} interleaved passes of {BATCH} calls")
    print(f"(old {old_src}, new {new_src})")
    print("| call | case | old best | old median | new best | new median | new / old, best | new / old, median |")
    print("|---|---|---|---|---|---|---|---|")
    for (kind, label, _, _), (t_old, t_new) in zip(new, times):
        m_old, m_new = statistics.median(t_old), statistics.median(t_new)
        print(f"| {kind} | {label} | {min(t_old):.1f} | {m_old:.1f} | {min(t_new):.1f} | {m_new:.1f} | "
              f"{min(t_new) / min(t_old):.3f} | {m_new / m_old:.3f} |")
    print(f"every value of the {len(new)} cases is the same in both trees, bit for bit")


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    warnings.simplefilter("error", RuntimeWarning)
    main(sys.argv[1], sys.argv[2], *map(int, sys.argv[3:]))
