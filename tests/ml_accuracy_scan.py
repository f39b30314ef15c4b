"""Accuracy scan of two tfedge source trees' Mittag-Leffler evaluators.

    python tests/ml_accuracy_scan.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a `tfedge` package (for example
`src` of two checkouts).  Each point is evaluated by ml_eval and by the
array router (`_ml_at` on the sweep [z, 2 z]) of each tree, on one grid:
alpha in {0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.95}, sigma in {alpha, 1}, 16
moduli |z| from 0.01 to 1e3 and 0.9 and 1.1 times the Taylor series'
radius of NEW_SRC (where the sweep switches from the series to the
contour), and 11 arguments in [0, pi], those on the ray arg z = pi alpha
moved 0.03 pi off it.  Both are compared with mpmath references at z: the
power series (ml_reference) for |z| <= 3 with |z|^(1/alpha) <= 100, and
the real-line integral (ml_gll_reference) elsewhere, which loses digits
near the ray at small |z|.  Prints the worst relative error of each tree
and router per (alpha, sigma, |z| < 1 or >= 1) over the points that tree
answered, the ml_eval points over 1e-12 for each tree, the points over
1e-12 in NEW_SRC alone, and the points OLD_SRC refused and NEW_SRC
answers, with their worst error, and the points whose ml_eval error grew;
then, for each router, how many values (and refusals) differ in any bit
between the trees.

The ray itself has rows of its own (140 points): sigma in {alpha, 1} at
z = |z| e^(i pi alpha) for the 10 moduli >= 1, against the expansion
ml_ray_expansion where it settles, else ml_half for E_{1/2,1} and the
series for |z|^(1/alpha) <= 100.  Their worst errors are printed per
reach of the ray's integral, with the refusals of each tree, the points
only NEW_SRC answers and the values differing between trees.

sigma in {0, -1} has rows of its own too (770 points): |z| in {1e-3, 1e-2,
0.1} and 0.9 and 1.1 times the radius at the 11 arguments, against the
series.  There 1/Gamma(sigma) = 0 leaves E ~ z / Gamma(sigma + alpha)
small, which the contour's absolute 1e-14 can miss; these rows show each
tree's points over 1e-12 inside the radius and past it.

The series' reach has rows of its own as well (168 points): sigma in
{alpha, 1, 0, -1} at 0.9 and 1.1 times M(theta) = min(R, (ln 16 / (1 -
cos(theta / alpha)))^alpha), the modulus up to which NEW_SRC sums the
series past its radius on the principal sheet (R the radius uncapped), at
three arguments theta in [0, pi alpha), against the series.  They show
each tree's worst error either side of M(theta) and the points newly over
1e-12.

Every RuntimeWarning is an error: a numpy overflow or invalid operation
that leaks from either tree counts as a refusal of its own kind
("RuntimeWarning") in that tree's refusals.  pytest does not collect this
file; the scan takes five to nine minutes on a 2-core host.
"""

import cmath
import importlib
import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _reference import ml_gll_reference, ml_half, ml_ray_expansion, ml_reference  # noqa: E402

ALPHAS = (0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.95)
RADII = np.geomspace(0.01, 1e3, 16)
SMALL_RADII = (1e-3, 1e-2, 0.1)
TOL = 1e-12


def load(name, src):
    """The tfedge package under src, imported as the package name."""
    spec = importlib.util.spec_from_file_location(
        name, Path(src) / "tfedge" / "__init__.py", submodule_search_locations=[str(Path(src) / "tfedge")]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def arguments(alpha):
    """11 arguments in [0, pi], those on the ray moved off it."""
    thetas = np.linspace(0.0, math.pi, 11)
    return np.where(np.abs(thetas - math.pi * alpha) < 1e-9, thetas + 0.03 * math.pi, thetas)


def series_radius(package, alpha):
    """The radius of the Taylor series at alpha, the same for every sigma >= -1."""
    return package.mittag_leffler._order_constants(alpha, (-1.0,)).radius


def series_reach(package, alpha, theta):
    """M(theta), the modulus up to which the package sums the series past its
    radius at |arg z| = theta < pi alpha: R, the last of its per-count
    limits (the radius uncapped), or less by ln 16."""
    big = package.mittag_leffler._order_constants(alpha, (-1.0,)).limits[-1]
    fall = 1.0 - math.cos(theta / alpha)
    return big if fall * big ** (1.0 / alpha) <= math.log(16.0) else (math.log(16.0) / fall) ** alpha


def label(alpha, sigma):
    return "alpha" if sigma == alpha else f"{sigma:g}"


def reference(alpha, sigma, z):
    # past |z|^(1/alpha) = 100 the series needs hundreds of digits and tens
    # of thousands of terms (alpha = 0.1, |z| = 2.15: 966 digits, about
    # 90 000 terms at 5 ms a Gamma value)
    rho = abs(z) ** (1.0 / alpha)
    if abs(z) <= 3.0 and rho <= 100.0:
        return ml_reference(alpha, sigma, z, 30 + int(rho / 2.3))
    return ml_gll_reference(alpha, sigma, z)


def ray_reference(alpha, sigma, z):
    """E on the ray |arg z| = pi alpha: the expansion where it settles, else
    ml_half for E_{1/2,1} and the series for |z|^(1/alpha) <= 100; None
    where none does.  (ml_half loses the digits of E_{1/2,1/2} to the
    cancellation in 1/sqrt(pi) + z w(-iz): 1.9e-13 at |z| = 4.6.)"""
    try:
        return ml_ray_expansion(alpha, sigma, z)
    except RuntimeError:
        rho = abs(z) ** (1.0 / alpha)
        if (alpha, sigma) == (0.5, 1.0):
            return ml_half(sigma, z)
        return ml_reference(alpha, sigma, z, 30 + int(rho / 2.3)) if rho <= 100.0 else None


def reach(alpha, r):
    """The intervals of the ray's integral that |z| = r reaches: 0, 1 or 2."""
    d, r_cut = r * min(0.5, math.sin(math.pi * alpha)), 50.0**alpha
    return int(r - d < r_cut) + int(r + d < r_cut)


def ray_rows(trees, old_src, new_src):
    """The worst relative error of each tree and router per (alpha, sigma,
    reach) on the ray, the refusals of each tree, the points only the new
    tree answers, and the values differing in any bit between trees."""
    worst, points, changed, unreferenced = {}, {}, 0, 0
    # refusals per tree, over both routers; errors of the points only the new tree answers
    refused, answered = ({}, {}), []
    for alpha in ALPHAS:
        for sigma in (alpha, 1.0):
            for r in RADII[RADII >= 1.0]:
                z = cmath.rect(r, math.pi * alpha)
                got = [value(tree, alpha, sigma, z) for tree in trees]
                arrays = [array_values(tree, alpha, sigma, z) for tree in trees]
                changed += differing(*got) + differing(*arrays)
                values = got + [a if isinstance(a, str) else a[0] for a in arrays]
                for side, v in enumerate(values):
                    if isinstance(v, str):
                        refused[side % 2][v] = refused[side % 2].get(v, 0) + 1
                want = ray_reference(alpha, sigma, z)
                if want is None:
                    unreferenced += 1
                    continue
                errors = [math.nan if isinstance(v, str) else abs(v - want) / abs(want) for v in values]
                answered += [errors[new] for old, new in ((0, 1), (2, 3)) if isinstance(values[old], str)
                             and not isinstance(values[new], str)]
                cell = (alpha, label(alpha, sigma), reach(alpha, r))
                worst[cell] = list(np.fmax(errors, worst.get(cell, (math.nan,) * 4)))
                points[cell] = points.get(cell, 0) + 1
        print(f"alpha={alpha} ray scanned", file=sys.stderr, flush=True)
    print(f"the ray arg z = pi alpha: worst relative error per reach ({old_src} -> {new_src})")
    print("| alpha | sigma | reach | points | ml_eval old | ml_eval new | array old | array new |")
    print("|---|---|---|---|---|---|---|---|")
    for (alpha, sigma, ray_reach), errors in sorted(worst.items()):
        print(f"| {alpha} | {sigma} | {ray_reach} | {points[alpha, sigma, ray_reach]} | "
              + " | ".join(f"{e:.1e}" for e in errors) + " |")
    print(f"ray: {unreferenced} points without a settled reference; "
          f"{changed} values differ in some bit between old and new")
    print(f"ray refused (ml_eval and array): old {refused[0] or 'none'}, new {refused[1] or 'none'}; "
          f"refused in old, answered in new: {len(answered)}, worst error {max(answered, default=math.nan):.1e}")


def small_z_rows(trees, old_src, new_src):
    """The worst relative error of each tree and router per (alpha, sigma,
    |z|) for sigma in {0, -1} near the origin, and how many ml_eval points of
    each tree are over TOL there, inside the new tree's series radius and
    past it."""
    print(f"sigma in {{0, -1}} at |z| <= 1.1 radius: worst relative error ({old_src} -> {new_src})")
    print("| alpha | sigma | modulus | ml_eval old | ml_eval new | array old | array new |")
    print("|---|---|---|---|---|---|---|")
    over = {"inside": [0, 0], "past": [0, 0]}
    for alpha in ALPHAS:
        radius = series_radius(trees[1], alpha)
        for sigma in (0.0, -1.0):
            for r in SMALL_RADII + (0.9 * radius, 1.1 * radius):
                worst = [math.nan] * 4
                for theta in arguments(alpha):
                    z = cmath.rect(r, theta)
                    arrays = [array_values(tree, alpha, sigma, z) for tree in trees]
                    values = [value(tree, alpha, sigma, z) for tree in trees]
                    values += [a if isinstance(a, str) else a[0] for a in arrays]
                    want = ml_reference(alpha, sigma, z, 40)
                    errors = [math.nan if isinstance(v, str) else abs(v - want) / abs(want) for v in values]
                    worst = list(np.fmax(errors, worst))
                    side = over["inside" if r <= radius else "past"]
                    side[:] = [n + int(e > TOL) for n, e in zip(side, errors[:2])]
                print(f"| {alpha} | {sigma:g} | {r:.4g} | " + " | ".join(f"{e:.1e}" for e in worst) + " |")
    for side, (old, new) in over.items():
        print(f"sigma in {{0, -1}}, {side} the radius: ml_eval points over {TOL:g}: old {old}, new {new}")


def reach_rows(trees, old_src, new_src):
    """The worst relative error of each tree and router per (alpha, sigma)
    at 0.9 and 1.1 times the new tree's series reach M(theta), three
    arguments theta in [0, pi alpha), and the ml_eval points newly over TOL
    in the new tree there."""
    print(f"0.9 and 1.1 times the series' reach M(theta): worst relative error ({old_src} -> {new_src})")
    print("| alpha | sigma | modulus | ml_eval old | ml_eval new | array old | array new |")
    print("|---|---|---|---|---|---|---|")
    newly = 0
    for alpha in ALPHAS:
        thetas = np.linspace(0.0, math.pi * alpha, 3, endpoint=False)
        for sigma in (alpha, 1.0, 0.0, -1.0):
            for factor in (0.9, 1.1):
                worst = [math.nan] * 4
                for theta in thetas:
                    z = cmath.rect(factor * series_reach(trees[1], alpha, theta), theta)
                    arrays = [array_values(tree, alpha, sigma, z) for tree in trees]
                    values = [value(tree, alpha, sigma, z) for tree in trees]
                    values += [a if isinstance(a, str) else a[0] for a in arrays]
                    want = ml_reference(alpha, sigma, z, 40 + int(abs(z) ** (1.0 / alpha) / 2.3))
                    errors = [math.nan if isinstance(v, str) else abs(v - want) / abs(want) for v in values]
                    worst = list(np.fmax(errors, worst))
                    newly += int(errors[1] > TOL and not errors[0] > TOL)
                print(f"| {alpha} | {label(alpha, sigma)} | {factor} M | " + " | ".join(f"{e:.1e}" for e in worst) + " |")
    print(f"series' reach rows: newly over {TOL:g} in new: {newly}")


def value(package, alpha, sigma, z):
    """ml_eval, or the name of the error it raises."""
    try:
        return package.ml_eval(package.MLParams(alpha, sigma), z)
    except Exception as refusal:  # noqa: BLE001  every refusal is counted, whatever its kind
        return type(refusal).__name__


def array_values(package, alpha, sigma, z):
    """The array router's E at z and 2 z, or the name of the error it raises."""
    try:
        return package.mittag_leffler._ml_at(alpha, (sigma,), np.array([z, 2.0 * z]))[0]
    except Exception as refusal:  # noqa: BLE001
        return type(refusal).__name__


def differing(a, b):
    """How many values of a and b (a value, an array of them, or the name of
    a refusal, which counts as one value) differ in any bit."""
    if isinstance(a, str) or isinstance(b, str):
        return int(not (isinstance(a, str) and isinstance(b, str) and a == b))
    a, b = (np.atleast_1d(np.asarray(v, dtype=complex)).view(np.int64).reshape(-1, 2) for v in (a, b))
    return int(np.count_nonzero((a != b).any(axis=1)))


def main(old_src, new_src):
    warnings.simplefilter("error", RuntimeWarning)
    trees = (load("tfedge_old", old_src), load("tfedge_new", new_src))
    worst = {}
    over = ([], [])
    # points the old tree refused and the new one answers: (ml_eval, array)
    # errors; and the ml_eval errors (old, new, point)
    answered, paired = [], []
    # refusals per router and tree, and values differing in any bit between
    # the trees, per router
    refused = {"ml_eval": ({}, {}), "array": ({}, {})}
    changed = {"ml_eval": 0, "array": 0}
    for alpha in ALPHAS:
        radius = series_radius(trees[1], alpha)
        for sigma in (alpha, 1.0):
            for r in np.append(RADII, (0.9 * radius, 1.1 * radius)):
                for theta in arguments(alpha):
                    z = cmath.rect(r, theta)
                    got = [value(tree, alpha, sigma, z) for tree in trees]
                    arrays = [array_values(tree, alpha, sigma, z) for tree in trees]
                    changed["ml_eval"] += differing(*got)
                    changed["array"] += differing(*arrays)
                    for router, values in (("ml_eval", got), ("array", arrays)):
                        for side, v in enumerate(values):
                            if isinstance(v, str):
                                refused[router][side][v] = refused[router][side].get(v, 0) + 1
                    # (ml_eval old, ml_eval new, array old, array new), nan where refused
                    values = got + [a if isinstance(a, str) else a[0] for a in arrays]
                    if all(isinstance(v, str) for v in values):
                        continue
                    want = reference(alpha, sigma, z)
                    errors = [math.nan if isinstance(v, str) else abs(v - want) / abs(want) for v in values]
                    cell = (alpha, label(alpha, sigma), "< 1" if r < 1.0 else ">= 1")
                    worst[cell] = list(np.fmax(errors, worst.get(cell, (math.nan,) * 4)))
                    for side, e in enumerate(errors[:2]):
                        if e > TOL:
                            over[side].append((alpha, sigma, r, theta / math.pi, errors[:2]))
                    if isinstance(got[0], str) and not isinstance(got[1], str):
                        answered.append((errors[1], errors[3]))
                    if not any(isinstance(v, str) for v in got):
                        paired.append((errors[0], errors[1], (alpha, sigma, r, theta / math.pi)))
            print(f"alpha={alpha} sigma={sigma:g} scanned", file=sys.stderr, flush=True)
    print(f"worst relative error per cell ({old_src} -> {new_src}; nan: every point refused)")
    print("| alpha | sigma | modulus | ml_eval old | ml_eval new | array old | array new |")
    print("|---|---|---|---|---|---|---|")
    for (alpha, sigma, band), errors in worst.items():
        print(f"| {alpha} | {sigma} | {band} | " + " | ".join(f"{e:.1e}" for e in errors) + " |")
    for side, name in enumerate(("old", "new")):
        print(f"{name}: {len(over[side])} ml_eval points over {TOL:g}")
        for router, sides in refused.items():
            print(f"  {router} refused: {sides[side] or 'none'}")
    newly = [p for p in over[1] if not p[4][0] > TOL]
    print(f"newly over {TOL:g} in new: {len(newly)}")
    for alpha, sigma, r, arg, (e_old, e_new) in newly:
        print(f"  alpha={alpha} sigma={sigma:g} |z|={r:.4g} arg z={arg:.3f} pi: {e_old:.1e} -> {e_new:.1e}")
    print(f"refused by ml_eval in old, answered in new: {len(answered)}, worst error "
          f"{max((e for e, _ in answered), default=math.nan):.1e} (array router "
          f"{np.fmax.reduce([a for _, a in answered]) if answered else math.nan:.1e})")
    worse = [p for p in paired if p[1] > p[0]]
    print(f"sigma in {{alpha, 1}}: ml_eval error larger in new at {len(worse)} of {len(paired)} points, "
          f"smaller at {sum(p[1] < p[0] for p in paired)}")
    for e_old, e_new, (alpha, sigma, r, arg) in sorted(worse, key=lambda p: p[1] - p[0])[-5:]:
        print(f"  alpha={alpha} sigma={sigma:g} |z|={r:.4g} arg z={arg:.3f} pi: {e_old:.1e} -> {e_new:.1e}")
    for router, count in changed.items():
        print(f"{router}: {count} values differ in some bit between old and new")
    ray_rows(trees, old_src, new_src)
    small_z_rows(trees, old_src, new_src)
    reach_rows(trees, old_src, new_src)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
