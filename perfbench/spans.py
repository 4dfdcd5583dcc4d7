"""Spans around calls into toruslab's layers, recorded from the benchmark only.

A traced repetition replaces each public function named in ``TARGETS`` with
a wrapper at every attribute where a caller looks it up: the module globals
of each toruslab module that binds it, or the class for methods.  Each call
records one span (name, start, end, parent span, run id, counts) in memory;
the child writes the spans out after the timed phase and restores the
originals.  Nothing under ``src/`` changes.

Counts are derived from each call's inputs through public functions, so they
stay valid when a layer's internals are replaced: RK4 steps from the
arguments of ``evolve``, windows from ``window_centers``, Gamma4 tuples as the
zero-sum quadruples over the input's support band, and grid bytes as
``len(times) * nx * 16`` (computed, not measured).
"""

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from toruslab import energy, estimates, evolution, runner, spacetime, spectral

MODULES = (spectral, evolution, spacetime, estimates, energy, runner)
LAYERS = ("runner", "evolution", "spacetime", "estimates", "energy", "spectral")
FK_BLOCKS = range(7)

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    [("evolution.busy_s", "s", "lower"),
     ("evolution.calls", "count", "lower"),
     ("evolution.steps", "count", "lower"),
     ("evolution.step_us", "us", "lower"),
     ("evolution.blowups", "count", "lower"),
     ("spacetime.busy_s", "s", "lower"),
     ("spacetime.windows", "count", "lower"),
     ("spacetime.window_us", "us", "lower")]
    + [(f"spacetime.fk_s.k{k}", "s", "lower") for k in FK_BLOCKS]
    + [("estimates.busy_s", "s", "lower"),
       ("estimates.grid_s", "s", "lower"),
       ("estimates.grid_calls", "count", "lower"),
       ("estimates.grid_mb", "MB", "lower"),
       ("estimates.config_s", "s", "lower"),
       ("estimates.lhs_s", "s", "lower"),
       ("estimates.lhs_calls", "count", "lower"),
       ("estimates.window_const_s", "s", "lower"),
       ("estimates.window_cache_hit_ratio", "ratio", "higher"),
       ("estimates.members", "count", "lower"),
       ("estimates.skipped", "count", "lower"),
       ("energy.busy_s", "s", "lower"),
       ("energy.e1_s", "s", "lower"),
       ("energy.r4_s", "s", "lower"),
       ("energy.r6_s", "s", "lower"),
       ("energy.cancellation_s", "s", "lower"),
       ("energy.gamma4_tuples", "count", "lower"),
       ("energy.gamma4_ns_per_tuple", "ns", "lower"),
       ("spectral.busy_s", "s", "lower"),
       ("spectral.calls", "count", "lower"),
       ("runner.self_s", "s", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.glue_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}
# Metrics derived from call inputs rather than measured; printed with a label.
COMPUTED = {"estimates.grid_mb": "computed as len(times) x nx x 16 bytes"}


class Recorder:
    """In-memory span store for one traced repetition."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        """Record the enclosed interval; yields the span's count dict."""
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


# ---------------------------------------------------------------------------
# counts derived from call inputs (run after the wrapped call returns)


def _evolve_counts(a, result, before):
    dt = a["dt"]
    if dt is None:
        dt = evolution.default_dt(a["problem"])
    intervals = max(2, int(a["n_snapshots"])) - 1
    span = a["t_final"] / intervals
    return {"steps": intervals * max(1, int(round(abs(span) / abs(float(dt)))))}


def _window_counts(a, result, before):
    centers = a["centers"]
    if centers is None:
        centers = spacetime.window_centers(a["field"].support, a["k"])
    return {"k": int(a["k"]), "windows": len(centers)}


def _grid_counts(a, result, before):
    return {"bytes": len(a["times"]) * int(a["nx"]) * 16}


def _family_counts(sweep_arg):
    def counts(a, result, before):
        per_point = a["count"] + bool(a["include_coherent"])
        return {"members": len(a[sweep_arg]) * per_point,
                "skipped": int(result.skipped)}
    return counts


def _trilinear_ratio_counts(a, result, before):
    members = a["count"] + bool(a["include_coherent"]) + bool(a["include_tuned"])
    return {"members": members, "skipped": int(result[1])}


def _window_cache_size():
    cache = getattr(estimates.TrilinearConfig, "_window_cache", None)
    return None if cache is None else len(cache)


def _window_cache_counts(a, result, before):
    hit = before is not None and _window_cache_size() == before
    return {"hit": int(hit)}


@functools.lru_cache(maxsize=None)
def _quadruples(band, lam):
    return energy.GridSimplex(4, band, lam).count()


def _gamma4_counts(a, result, before):
    u = a["u"]
    live = np.abs(u.coeffs) > 0.0
    band = int(np.max(np.abs(u.geometry.mvals[live]), initial=0))
    return {"tuples": _quadruples(max(band, 1), float(u.lam))}


# (owner, attribute, span name, counts(bound args, result, before), before())
TARGETS = [
    (runner, "apriori_run", "runner.apriori_run", None, None),
    (evolution, "evolve", "evolution.evolve", _evolve_counts, None),
    (spacetime, "fk_norm", "spacetime.fk_norm", _window_counts, None),
    (spacetime, "nk_norm", "spacetime.nk_norm", _window_counts, None),
    (spacetime, "xk_norm", "spacetime.xk_norm", None, None),
    (spacetime, "assembled_norm", "spacetime.assembled_norm", None, None),
    (spacetime, "from_trajectory", "spacetime.from_trajectory", None, None),
    (spacetime, "time_cutoff", "spacetime.time_cutoff", None, None),
    (estimates, "bilinear_ratio", "estimates.bilinear_ratio",
     _family_counts("n_values"), None),
    (estimates, "maximal_ratio", "estimates.maximal_ratio",
     _family_counts("n_values"), None),
    (estimates, "smoothing_ratio", "estimates.smoothing_ratio",
     _family_counts("n_values"), None),
    (estimates, "l4_modulation_ratio", "estimates.l4_modulation_ratio",
     _family_counts("j_values"), None),
    (estimates, "trilinear_sweep", "estimates.trilinear_sweep", None, None),
    (estimates, "trilinear_ratio", "estimates.trilinear_ratio",
     _trilinear_ratio_counts, None),
    (estimates, "free_solution_grid", "estimates.free_solution_grid",
     _grid_counts, None),
    (estimates.TrilinearConfig, "__init__", "estimates.TrilinearConfig",
     None, None),
    (estimates.TrilinearConfig, "lhs_norm", "estimates.lhs_norm", None, None),
    (estimates.TrilinearConfig, "factor_window_constant",
     "estimates.factor_window_constant", _window_cache_counts,
     _window_cache_size),
    (energy, "e0_energy", "energy.e0_energy", None, None),
    (energy, "e1_correction", "energy.e1_correction", _gamma4_counts, None),
    (energy, "r4_form", "energy.r4_form", _gamma4_counts, None),
    (energy, "r6_form", "energy.r6_form", _gamma4_counts, None),
    (energy, "cancellation_check", "energy.cancellation_check", None, None),
    (spectral.SpectralField, "l2_norm", "spectral.l2_norm", None, None),
    (spectral.SpectralField, "samples", "spectral.samples", None, None),
] + [
    (spectral, name, f"spectral.{name}", None, None)
    for name in ("random_field", "sobolev_norm", "lp_project", "block_indicator",
                 "block_of", "max_block", "forward_transform",
                 "inverse_transform", "hilbert_transform", "lebesgue_norm",
                 "field_lebesgue_norm")
]


def _wrap(recorder, name, fn, counts, before):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = None
        if counts is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bound = bound.arguments
        state = before() if before is not None else None
        with recorder.span(name) as record:
            try:
                result = fn(*args, **kwargs)
            except evolution.IntegrationBlowupError:
                record["blowups"] = 1
                raise
        if counts is not None:
            record.update(counts(bound, result, state))
        return result

    return traced


def instrument(recorder):
    """Install the wrappers; returns a function that restores the originals."""
    undo = []
    for owner, attr, name, counts, before in TARGETS:
        original = getattr(owner, attr)
        traced = _wrap(recorder, name, original, counts, before)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for m in MODULES if m.__dict__.get(attr) is original]
        for holder in holders:
            setattr(holder, attr, traced)
            undo.append((holder, attr, original))

    def restore():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics from one traced repetition


def layer_metrics(spans):
    """Per-layer metrics from the spans of one traced repetition whose root
    span (the timed phase) is spans[0].  A span's self time is its duration
    minus the durations of its direct children (calls nest, so children never
    overlap); a layer's busy time is the self time of its spans.  No span that
    attaches a count key runs inside another span attaching the same key, so
    counts are summed by key."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    busy = dict.fromkeys(LAYERS, 0.0)
    incl = defaultdict(float)
    calls = Counter()
    counts = Counter()
    fk = defaultdict(float)
    for s, own_children in zip(spans[1:], child_time[1:]):
        dur = s["end"] - s["start"]
        busy[s["name"].split(".")[0]] += dur - own_children
        incl[s["name"]] += dur
        calls[s["name"]] += 1
        counts.update(s["counts"])
        if s["name"] == "spacetime.fk_norm":
            fk[s["counts"]["k"]] += dur

    def per(numer, denom, scale):
        return numer / denom * scale if denom else 0.0

    wall = spans[0]["end"] - spans[0]["start"]
    gamma4 = ("energy.e1_correction", "energy.r4_form", "energy.r6_form")
    window_s = incl["spacetime.fk_norm"] + incl["spacetime.nk_norm"]
    out = {
        "evolution.busy_s": busy["evolution"],
        "evolution.calls": calls["evolution.evolve"],
        "evolution.steps": counts["steps"],
        "evolution.step_us": per(busy["evolution"], counts["steps"], 1e6),
        "evolution.blowups": counts["blowups"],
        "spacetime.busy_s": busy["spacetime"],
        "spacetime.windows": counts["windows"],
        "spacetime.window_us": per(window_s, counts["windows"], 1e6),
    }
    out.update({f"spacetime.fk_s.k{k}": fk[k] for k in FK_BLOCKS})
    out.update({
        "estimates.busy_s": busy["estimates"],
        "estimates.grid_s": incl["estimates.free_solution_grid"],
        "estimates.grid_calls": calls["estimates.free_solution_grid"],
        "estimates.grid_mb": counts["bytes"] / 1e6,
        "estimates.config_s": incl["estimates.TrilinearConfig"],
        "estimates.lhs_s": incl["estimates.lhs_norm"],
        "estimates.lhs_calls": calls["estimates.lhs_norm"],
        "estimates.window_const_s": incl["estimates.factor_window_constant"],
        "estimates.window_cache_hit_ratio": per(
            counts["hit"], calls["estimates.factor_window_constant"], 1.0),
        "estimates.members": counts["members"],
        "estimates.skipped": counts["skipped"],
        "energy.busy_s": busy["energy"],
        "energy.e1_s": incl["energy.e1_correction"],
        "energy.r4_s": incl["energy.r4_form"],
        "energy.r6_s": incl["energy.r6_form"],
        "energy.cancellation_s": incl["energy.cancellation_check"],
        "energy.gamma4_tuples": counts["tuples"],
        "energy.gamma4_ns_per_tuple": per(sum(incl[n] for n in gamma4),
                                          counts["tuples"], 1e9),
        "spectral.busy_s": busy["spectral"],
        "spectral.calls": sum(n for name, n in calls.items()
                              if name.startswith("spectral.")),
        "runner.self_s": busy["runner"],
        "trace.wall_s": wall,
        "trace.glue_s": wall - child_time[0],
    })
    return out
