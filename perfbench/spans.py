"""Spans around tfedge's public entry points, for the traced run only.

install() rebinds the names the calling modules look up at call time (for
example edge_current.ml_eval, the name _current_direct_on_table calls), so
the program's source stays as it is.  A span records its layer, name, start,
end and parent.  Parents are kept per thread; a span opened on a sweep-pool
worker takes the open map_over_times span as its parent.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from time import perf_counter

# |z| band edges of the Mittag-Leffler metrics, fixed here and not read from
# the program: 1, 5, and 10 (tfedge's series/asymptotic switch today)
BANDS = ((1.0, "z0_1"), (5.0, "z1_5"), (10.0, "z5_10"), (float("inf"), "z10_inf"))


def z_band(z) -> str:
    r = abs(complex(z))
    return next(name for edge, name in BANDS if r < edge)


# (module, attribute, layer); one wrapper per function object, so a function
# imported into two modules is one layer entry point under both names
ENTRY_POINTS = (
    ("mittag_leffler", "ml_eval", "mittag_leffler"),
    ("edge_current", "ml_eval", "mittag_leffler"),
    ("msd", "ml_eval", "mittag_leffler"),
    ("wellposed", "ml_eval", "mittag_leffler"),
    ("fiber_spectrum", "solve_ground_state", "fiber_spectrum"),
    ("edge_current", "solve_ground_state", "fiber_spectrum"),
    ("edge_current", "dk_phi1", "fiber_spectrum"),
    ("edge_current", "build_spectral_table", "table"),
    ("edge_current", "current_direct", "current"),
    ("edge_current", "current_trace", "sweep"),
    ("edge_current", "map_over_times", "sweep"),
    ("edge_current", "current_naber", "model"),
    ("edge_current", "fit_exponent", "model"),
    ("msd", "msd_direct", "msd"),
    ("msd", "msd_assembled", "msd"),
    ("msd", "msd_naber_leading", "msd"),
    ("msd", "msd_case2_leading", "msd"),
    ("wellposed", "certify_bounds", "wellposed"),
    ("wellposed", "caputo_residual", "wellposed"),
)


class Tracer:
    def __init__(self):
        # (id, layer, name, tag, start, end, parent)
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool_parent = None

    def wrap(self, layer, fn):
        name = fn.__name__
        is_ml = layer == "mittag_leffler"
        is_pool = name == "map_over_times"

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._pool_parent
            sid = next(self._ids)
            tag = z_band(args[1]) if is_ml else None
            stack.append(sid)
            if is_pool:
                outer, self._pool_parent = self._pool_parent, sid
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if is_pool:
                    self._pool_parent = outer
                stack.pop()
                self.spans.append((sid, layer, name, tag, start, end, parent))

        traced.__name__ = name
        return traced

    def install(self):
        wrapped = {}
        for module_name, attr, layer in ENTRY_POINTS:
            module = importlib.import_module(f"tfedge.{module_name}")
            fn = getattr(module, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.wrap(layer, fn)
            setattr(module, attr, wrapped[id(fn)])


def _union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(spans, rounds: int, table_nodes: int):
    """Per-layer figures for one setup and one round of the workload.

    Setup layers (fiber_spectrum, table) are totals of the single setup of a
    traced run; the others are divided by the number of rounds.  busy_s is
    the time at least one call of the layer was open; self_s subtracts the
    time covered by its children in other layers.
    """
    by_layer = {}
    for span in spans:
        by_layer.setdefault(span[1], []).append(span)

    def busy(group):
        return _union([(s[4], s[5]) for s in group])

    def self_time(layer):
        group = by_layer.get(layer, [])
        own = {s[0] for s in group}
        children = [s for s in spans if s[6] in own and s[1] != layer]
        return busy(group) - busy(children)

    def calls(layer, names=None):
        return sum(1 for s in by_layer.get(layer, []) if names is None or s[2] in names)

    ml = by_layer.get("mittag_leffler", [])
    per_round = 1.0 / rounds
    out = {
        "mittag_leffler.calls": len(ml) * per_round,
        "mittag_leffler.busy_s": busy(ml) * per_round,
        "mittag_leffler.max_call_ms": 1e3 * max((s[5] - s[4] for s in ml), default=0.0),
    }
    for _, band in BANDS:
        group = [s for s in ml if s[3] == band]
        out[f"mittag_leffler.{band}.calls"] = len(group) * per_round
        out[f"mittag_leffler.{band}.busy_s"] = busy(group) * per_round

    solves = calls("fiber_spectrum", {"solve_ground_state"})
    builds = calls("table")
    fiber_busy = busy(by_layer.get("fiber_spectrum", []))
    out.update({
        "fiber_spectrum.solves": solves,
        "fiber_spectrum.busy_s": fiber_busy,
        "fiber_spectrum.ms_per_solve": 1e3 * fiber_busy / solves if solves else 0.0,
        "fiber_spectrum.solves_per_node": solves / (builds * table_nodes) if builds else 0.0,
        "edge_current.table_builds": builds,
        "edge_current.table_s": busy(by_layer.get("table", [])),
        "edge_current.current_calls": calls("current") * per_round,
        "edge_current.current_self_s": self_time("current") * per_round,
        "edge_current.model_self_s": self_time("model") * per_round,
        "edge_current.sweep_self_s": self_time("sweep") * per_round,
        "msd.calls": calls("msd", {"msd_direct", "msd_assembled"}) * per_round,
        "msd.self_s": self_time("msd") * per_round,
        "wellposed.calls": calls("wellposed") * per_round,
        "wellposed.self_s": self_time("wellposed") * per_round,
    })
    return out
