"""In-memory span tracing around cibpath's public functions.

A function is traced by replacing its name in every module namespace that
calls it (``succession_step`` is looked up in ``cibpath.simulate`` and in
``cibpath.engine``, so both names are patched) and, for methods, on the
class.  Each call records a span: name, start, end, parent span and the
operation it belongs to.  Spans stay in memory until the run ends; self
times (a span's duration minus the time its child spans cover) are derived
afterwards.

Spans recorded inside worker processes are lost when the worker exits, so
per-layer numbers are read from phases that run at one worker.
"""

from __future__ import annotations

import gzip
import importlib
import os
import time
from contextlib import contextmanager

import numpy as np

#: (module, name) pairs to patch; a ``Class.method`` name is patched on the class.  Every call of cibpath's public API
#: that crosses a module boundary on the measured paths goes through one of
#: these names; helpers private to a module are counted in their caller.
PATCH_TARGETS = (
    ("cibpath.pipeline", "run_pipeline"),
    ("cibpath.pipeline", "load_study_spec"),
    ("cibpath.pipeline", "validate_study_spec"),
    ("cibpath.pipeline", "simulate_ensemble"),
    ("cibpath.pipeline", "save_ensemble"),
    ("cibpath.pipeline", "load_ensemble"),
    ("cibpath.pipeline", "state_share_series"),
    ("cibpath.pipeline", "screen_candidates"),
    ("cibpath.pipeline", "select_candidates"),
    ("cibpath.pipeline", "load_mcda_input"),
    ("cibpath.pipeline", "rank_pathways"),
    ("cibpath.pipeline", "ranking_report"),
    ("cibpath.pipeline", "load_translation_file"),
    ("cibpath.pipeline", "quantify_pathway"),
    ("cibpath.pipeline", "attach_uncertainty_ranges"),
    ("cibpath.pipeline", "build_extreme_scenarios"),
    ("cibpath.pipeline", "_dump_json"),
    ("cibpath.pipeline", "_file_digest"),
    ("cibpath.simulate", "succession_step"),
    ("cibpath.simulate", "sample_cim"),
    ("cibpath.simulate", "apply_structural_shock"),
    ("cibpath.simulate", "advance_dynamic_shock"),
    ("cibpath.engine", "succession_step"),
    ("cibpath.engine", "check_consistency"),
    ("cibpath.engine", "enumerate_consistent"),
    ("cibpath.engine", "find_attractor"),
    ("cibpath.model", "load_study_spec"),
    ("cibpath.model", "validate_study_spec"),
    ("cibpath.model", "StudySpec.digest"),
    ("cibpath.uncertainty", "RandomSource.substream"),
)

LAYERS = (
    "model",
    "engine",
    "uncertainty",
    "simulate",
    "analytics",
    "mcda",
    "quantify",
    "pipeline",
)


class Clock:
    """Times the phases of an operation; the untraced measurement."""

    def __init__(self):
        self.phases: dict[str, float] = {}

    def start_op(self, op_id) -> None:
        self.phases = {}

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0


class Tracer(Clock):
    """A Clock that also records spans while its patches are installed.

    Each phase opens a root span named ``bench.<phase>``; the patched
    functions record child spans beneath it.  OBSERVERS may add counters
    for the current operation after a span closes.
    """

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.name: list[int] = []
        self.op: list = []
        self._stack = [-1]
        self._op_id = None
        self._phase = None
        self.marks: list[tuple] = []  # (op id, phase, file basename, time)
        self.counters: dict = {}  # op id -> {counter: value}
        self._name_ids: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def start_op(self, op_id) -> None:
        super().start_op(op_id)
        self._op_id = op_id
        self.counters.setdefault(op_id, {})
        self._phase = None

    def count(self, key: str, value: float = 1) -> None:
        c = self.counters[self._op_id]
        c[key] = c.get(key, 0) + value

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.op.append(self._op_id)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        self._phase = name
        sid = self._open(self._name_id(f"bench.{name}"))
        t0 = self.start[sid]
        try:
            yield
        finally:
            self._close(sid)
            self.phases[name] = self.phases.get(name, 0.0) + self.end[sid] - t0

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        observer = OBSERVERS.get(name)
        start, end, parent, names, ops, stack = (
            self.start, self.end, self.parent, self.name, self.op, self._stack
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            ops.append(tracer._op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observer is not None:
                observer(tracer, args, result, end[sid])
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        wrappers: dict = {}
        try:
            for module, name in PATCH_TARGETS:
                owner = importlib.import_module(module)
                *classes, attr = name.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                key = f"{original.__module__}.{original.__qualname__}"
                if key not in wrappers:
                    wrappers[key] = self._wrap(original, key)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[key])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Span table as numpy arrays, with each span's self time."""
        n = len(self.start)
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end[:n], dtype=float)
        parent = np.asarray(self.parent[:n], dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "start": start,
            "end": end,
            "parent": parent,
            "name": np.asarray(self.name[:n], dtype=np.int64),
            "dur": dur,
            "self": dur - covered,
        }

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed tab-separated text."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t"
                    f"{self.names[self.name[sid]]}\t"
                    f"{self.start[sid] - t0:.7f}\t{self.end[sid] - t0:.7f}\n"
                )


def layer_of(name: str) -> str:
    """``cibpath.engine.find_attractor`` -> ``engine``; root spans -> ``bench``."""
    parts = name.split(".")
    return parts[1] if parts[0] == "cibpath" else "bench"


# -- observers: counters read from arguments and results at the span's end --


def _on_file_digest(tracer, args, result, t_end):
    tracer.marks.append((tracer._op_id, tracer._phase, os.path.basename(args[0]), t_end))


def _on_screen(tracer, args, result, t_end):
    tracer.count("survivors", len(result.candidates))
    tracer.count("distinct_pathways", len(result.candidates) + len(result.rejected))


def _on_select(tracer, args, result, t_end):
    sizes: dict = {}
    for c in args[0].candidates:
        t = c.pathway.terminal()
        sizes[t] = sizes.get(t, 0) + 1
    tracer.count("select_groups", len(sizes))
    tracer.count("distance_evals", sum(s * s for s in sizes.values()))


OBSERVERS = {
    "cibpath.pipeline._file_digest": _on_file_digest,
    "cibpath.analytics.screen_candidates": _on_screen,
    "cibpath.analytics.select_candidates": _on_select,
}


# -- per-layer metrics -------------------------------------------------------

STAGES = ("validate", "simulate", "stats", "screen", "mcda", "quantify")

#: Which stage wrote each file whose digest run_pipeline records.
STAGE_OF_FILE = {
    "findings.json": "validate",
    "ensemble.jsonl": "simulate",
    "shares.csv": "stats",
    "shares.json": "stats",
    "candidates.json": "screen",
    "mcda_report.json": "mcda",
    "quantified.csv": "quantify",
    "quantified.json": "quantify",
}

SUBSTREAM = "cibpath.uncertainty.RandomSource.substream"
DIGEST = "cibpath.model.StudySpec.digest"


#: Unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "model.load_validate_ms": "ms",
    "uncertainty.substream_calls": "count",
    "uncertainty.substream_us": "us",
    "uncertainty.sample_cim_us": "us",
    "uncertainty.structural_shock_us": "us",
    "uncertainty.dynamic_shock_us": "us",
    "engine.succession_calls": "count",
    "engine.succession_us": "us",
    "engine.consistency_checks": "count",
    "engine.consistency_us": "us",
    "engine.attractor_steps": "count",
    "engine.attractor_fixed_points": "count",
    "engine.attractor_cycles": "count",
    "engine.attractor_nonconverged": "count",
    "simulate.ensemble_s": "s",
    "simulate.ensemble_2w_s": "s",
    "simulate.scaling_eff": "ratio",
    "simulate.ms_per_run": "ms",
    "simulate.periods_converged": "count",
    "simulate.periods_capped": "count",
    "simulate.periods_infeasible": "count",
    "simulate.mean_iterations": "iterations",
    "simulate.useful_iter_ratio": "ratio",
    "simulate.save_s": "s",
    "simulate.load_s": "s",
    "simulate.ensemble_bytes": "bytes",
    "analytics.shares_s": "s",
    "analytics.screen_s": "s",
    "analytics.distinct_pathways": "count",
    "analytics.screen_pass_ratio": "ratio",
    "analytics.select_s": "s",
    "analytics.select_groups": "count",
    "analytics.distance_evals": "count",
    "mcda.rank_ms": "ms",
    "quantify.extremes_s": "s",
    "quantify.pathway_ms": "ms",
    "pipeline.glue_s": "s",
    **{f"pipeline.stage_s.{st}": "s" for st in STAGES},
    **{f"{layer}.self_s": "s" for layer in LAYERS[:-1]},
    "trace.bench_self_s": "s",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _fn(module: str, name: str) -> str:
    return f"cibpath.{module}.{name}"


class _Selection:
    """Call counts and times per span name over a subset of spans."""

    def __init__(self, tracer: Tracer, table: dict, mask: np.ndarray):
        self.names = tracer.names
        ids = table["name"][mask]
        k = len(tracer.names)
        self.calls = np.bincount(ids, minlength=k)
        self.dur = np.bincount(ids, weights=table["dur"][mask], minlength=k)
        self.self_time = np.bincount(ids, weights=table["self"][mask], minlength=k)
        self._ids = {n: i for i, n in enumerate(tracer.names)}

    def n(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else int(self.calls[i])

    def total(self, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(self.dur[i])

    def per_call_us(self, name: str) -> float:
        i = self._ids.get(name)
        if i is None or not self.calls[i]:
            return 0.0
        return float(self.self_time[i] / self.calls[i] * 1e6)

    def layer_self(self, layer: str) -> float:
        return float(
            sum(self.self_time[i] for i, n in enumerate(self.names) if layer_of(n) == layer)
        )


def _roots(parent: np.ndarray) -> np.ndarray:
    """Index of each span's root span, by pointer jumping."""
    root = np.where(parent >= 0, parent, np.arange(len(parent)))
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def _stage_times(tracer, table, op_id, phase) -> dict:
    """Stage wall times of the run_pipeline call in one phase.

    A stage ends when run_pipeline has digested the last file it wrote; the
    first stage starts when the spec's digest (taken right after loading the
    spec) returns.
    """
    ids = {n: i for i, n in enumerate(tracer.names)}
    rp = ids.get(_fn("pipeline", "run_pipeline"))
    root_name = ids.get(f"bench.{phase}")
    out = {s: 0.0 for s in STAGES}
    if rp is None or root_name is None:
        return out
    ops = tracer.op
    cand = [
        s for s in np.flatnonzero(table["name"] == rp)
        if ops[s] == op_id and table["name"][table["parent"][s]] == root_name
    ]
    if not cand:
        return out
    rp_sid = cand[0]
    digests = np.flatnonzero(
        (table["parent"] == rp_sid) & (table["name"] == ids.get(DIGEST, -1))
    )
    prev = table["end"][digests[0]] if len(digests) else table["start"][rp_sid]
    ends: dict = {}
    for m_op, m_phase, base, t in tracer.marks:
        if m_op == op_id and m_phase == phase and base in STAGE_OF_FILE:
            st = STAGE_OF_FILE[base]
            ends[st] = max(ends.get(st, t), t)
    for st in STAGES:
        if st in ends:
            out[st] = ends[st] - prev
            prev = ends[st]
    return out


def per_layer_metrics(
    tracer: Tracer,
    traced_ops: list,
    layer_phases: tuple,
    parallel_phase,
    workers: int,
) -> list[dict]:
    """One metrics dict per traced operation.

    ``traced_ops`` holds (op id, phase times, workload counts).  Layer
    numbers come from spans under ``layer_phases`` (all at one worker);
    ``parallel_phase``, when given, only contributes its simulate span.
    """
    table = tracer.arrays()
    root = _roots(table["parent"])
    root_names = np.asarray([tracer.names[i] for i in table["name"][root]], dtype=object)
    ops = np.asarray(tracer.op, dtype=object)
    in_layer_phase = np.isin(root_names, [f"bench.{p}" for p in layer_phases])
    everything = _Selection(tracer, table, np.ones(len(ops), dtype=bool))

    load_calls = everything.n(_fn("model", "load_study_spec"))
    model_ms = (
        (
            everything.total(_fn("model", "load_study_spec"))
            + everything.total(_fn("model", "validate_study_spec"))
            + everything.total(DIGEST)
        )
        * 1000
        / load_calls
        if load_calls
        else 0.0
    )

    rows = []
    for op_id, phases, counts in traced_ops:
        is_op = ops == op_id
        sel = _Selection(tracer, table, is_op & in_layer_phase)
        c = dict(counts)
        for k, v in tracer.counters.get(op_id, {}).items():
            c[k] = c.get(k, 0) + v
        ens_s = sel.total(_fn("simulate", "simulate_ensemble"))
        ens_2w_s = 0.0
        if parallel_phase is not None:
            par = _Selection(tracer, table, is_op & (root_names == f"bench.{parallel_phase}"))
            ens_2w_s = par.total(_fn("simulate", "simulate_ensemble"))
        distinct = c.get("distinct_pathways", 0)
        m = {
            "model.load_validate_ms": model_ms,
            "uncertainty.substream_calls": sel.n(SUBSTREAM),
            "uncertainty.substream_us": sel.per_call_us(SUBSTREAM),
            "uncertainty.sample_cim_us": sel.per_call_us(_fn("uncertainty", "sample_cim")),
            "uncertainty.structural_shock_us": sel.per_call_us(
                _fn("uncertainty", "apply_structural_shock")
            ),
            "uncertainty.dynamic_shock_us": sel.per_call_us(
                _fn("uncertainty", "advance_dynamic_shock")
            ),
            "engine.succession_calls": sel.n(_fn("engine", "succession_step")),
            "engine.succession_us": sel.per_call_us(_fn("engine", "succession_step")),
            "engine.consistency_checks": sel.n(_fn("engine", "check_consistency")),
            "engine.consistency_us": sel.per_call_us(_fn("engine", "check_consistency")),
            "engine.attractor_steps": c.get("attractor_steps", 0),
            "engine.attractor_fixed_points": c.get("fixed_points", 0),
            "engine.attractor_cycles": c.get("cycles", 0),
            "engine.attractor_nonconverged": c.get("nonconverged", 0),
            "simulate.ensemble_s": ens_s,
            "simulate.ensemble_2w_s": ens_2w_s,
            "simulate.scaling_eff": ens_s / (workers * ens_2w_s) if ens_2w_s else 0.0,
            "simulate.ms_per_run": ens_s * 1000 / c["simulated_runs"]
            if c.get("simulated_runs")
            else 0.0,
            "simulate.periods_converged": c.get("periods_converged", 0),
            "simulate.periods_capped": c.get("periods_capped", 0),
            "simulate.periods_infeasible": c.get("periods_infeasible", 0),
            "simulate.mean_iterations": c.get("mean_iterations", 0.0),
            "simulate.useful_iter_ratio": c.get("useful_iter_ratio", 0.0),
            "simulate.save_s": sel.total(_fn("simulate", "save_ensemble")),
            "simulate.load_s": sel.total(_fn("simulate", "load_ensemble")),
            "simulate.ensemble_bytes": c.get("ensemble_bytes", 0),
            "analytics.shares_s": sel.total(_fn("analytics", "state_share_series")),
            "analytics.screen_s": sel.total(_fn("analytics", "screen_candidates")),
            "analytics.distinct_pathways": distinct,
            "analytics.screen_pass_ratio": c.get("survivors", 0) / distinct if distinct else 0.0,
            "analytics.select_s": sel.total(_fn("analytics", "select_candidates")),
            "analytics.select_groups": c.get("select_groups", 0),
            "analytics.distance_evals": c.get("distance_evals", 0),
            "mcda.rank_ms": sel.total(_fn("mcda", "rank_pathways")) * 1000,
            "quantify.extremes_s": sel.total(_fn("quantify", "build_extreme_scenarios")),
            "quantify.pathway_ms": sel.total(_fn("quantify", "quantify_pathway")) * 1000,
            "pipeline.glue_s": sel.layer_self("pipeline"),
        }
        stage = {}
        for phase in layer_phases:
            for st, v in _stage_times(tracer, table, op_id, phase).items():
                stage[st] = stage.get(st, 0.0) + v
        for st in STAGES:
            m[f"pipeline.stage_s.{st}"] = stage[st]
        for layer in LAYERS[:-1]:  # the pipeline layer's self time is glue_s
            m[f"{layer}.self_s"] = sel.layer_self(layer)
        m["trace.bench_self_s"] = sel.layer_self("bench")
        m["trace.op_s"] = sum(phases[p] for p in layer_phases)
        rows.append(m)
    return rows
