"""The benchmark's workloads, their inputs and their output checks.

Every workload is built from the seed alone and calls only cibpath's public
API.  ``setup`` prepares inputs in a fresh directory, ``run`` performs one
operation (one or two timed phases), ``check`` returns the list of output
checks the last operation failed, and ``counts`` returns work counters read
from its outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from itertools import product

import numpy as np

import cibpath
from cibpath import engine, model, pipeline, simulate


@dataclasses.dataclass(frozen=True)
class Sizes:
    pipeline_runs: int = 2000
    rescreen_runs: int = 10_000
    descriptors: int = 8
    states: int = 4
    starts: int = 2000


#: Small enough for the smoke test to run every workload in seconds.
TINY = Sizes(pipeline_runs=120, rescreen_runs=150, descriptors=6, states=3, starts=40)

#: Worker count of the parallel pipeline phase.
PARALLEL_WORKERS = 2

FIXTURES = os.path.join(os.path.dirname(cibpath.__file__), "fixtures")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def copy_study(workdir: str, seed: int, run_count: int) -> str:
    """Copy the mini pipeline fixture and the files it names into workdir,
    with the benchmark seed as master seed; returns the config path."""
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(FIXTURES, "mini_pipeline.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("spec", "mcda_input", "translation", "identities"):
        if key in doc:
            shutil.copy(os.path.join(FIXTURES, doc[key]), workdir)
    doc.update(master_seed=seed, run_count=run_count)
    path = os.path.join(workdir, "pipeline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


def ensemble_counts(path: str, run_count: int) -> tuple[dict, list[str]]:
    """Period outcomes read from a saved ensemble, and failed checks."""
    ens = simulate.load_ensemble(path)
    errors = []
    if ens.run_count != run_count:
        errors.append(f"ensemble header run_count {ens.run_count} != {run_count}")
    ok = ens.ok_runs()
    if len(ok) != run_count:
        errors.append(f"ensemble holds {len(ok)} error-free records, expected {run_count}")
    converged = capped = useful = total_iter = 0
    for r in ens.runs:
        for conv, it in zip(r.converged[1:], r.succession_iterations[1:]):
            total_iter += it
            if conv:
                converged += 1
                useful += it
            else:
                capped += 1
    periods = converged + capped
    counts = {
        "periods_converged": converged,
        "periods_capped": capped,
        "periods_infeasible": sum(1 for r in ens.runs if r.error is not None),
        "mean_iterations": total_iter / periods if periods else 0.0,
        "useful_iter_ratio": useful / total_iter if total_iter else 0.0,
        "ensemble_bytes": os.path.getsize(path),
    }
    return counts, errors


class Workload:
    name = ""
    #: Phases whose spans give the per-layer numbers (all at one worker).
    layer_phases: tuple = ()
    #: Phase run at PARALLEL_WORKERS, traced only at its parent-side spans.
    parallel_phase = None
    #: How often one run repeats set-up to report its median.
    setup_repeats = 5

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        self.seed = seed
        self.sizes = sizes
        self.first_digests = None

    def setup(self, workdir: str) -> None:
        raise NotImplementedError

    def run(self, clock) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def counts(self) -> dict:
        """Work counters of the last operation, set by ``check``."""
        return self._counts

    def digests(self) -> dict:
        raise NotImplementedError

    def check_repeatable(self) -> list[str]:
        """Every operation of a run must produce the first one's outputs."""
        d = self.digests()
        if self.first_digests is None:
            self.first_digests = d
            return []
        if d != self.first_digests:
            return [f"outputs differ from the first operation: {d} != {self.first_digests}"]
        return []


class MiniPipeline(Workload):
    """The paper's end-to-end use: all six stages on the mini study, once
    at one worker and once at two, which must give identical manifests."""

    name = "mini-pipeline"
    layer_phases = ("pipeline_s",)
    parallel_phase = "pipeline_2w_s"

    def setup(self, workdir: str) -> None:
        cfg_path = copy_study(workdir, self.seed, self.sizes.pipeline_runs)
        self.serial = pipeline.load_pipeline_config(cfg_path, os.path.join(workdir, "out1"))
        self.parallel = dataclasses.replace(
            pipeline.load_pipeline_config(cfg_path, os.path.join(workdir, "out2")),
            worker_count=PARALLEL_WORKERS,
        )

    def run(self, clock) -> None:
        with clock.phase("pipeline_s"):
            self.manifest = pipeline.run_pipeline(self.serial)
        with clock.phase("pipeline_2w_s"):
            self.manifest_2w = pipeline.run_pipeline(self.parallel)

    def check(self) -> list[str]:
        errors = []
        if self.manifest != self.manifest_2w:
            errors.append("1-worker and 2-worker manifests differ")
        path = os.path.join(self.serial.output_dir, "ensemble.jsonl")
        self._counts, ens_errors = ensemble_counts(path, self.serial.run_count)
        self._counts["simulated_runs"] = self.serial.run_count
        return errors + ens_errors + self.check_repeatable()

    def digests(self) -> dict:
        return {
            "ensemble": self.manifest["stages"]["simulate"]["ensemble.jsonl"],
            "manifest": sha256_file(os.path.join(self.serial.output_dir, "manifest.json")),
        }


class Rescreen(Workload):
    """An analyst re-screening a saved ensemble: stats, screen, mcda and
    quantify read a 10k-run ensemble simulated during set-up."""

    name = "rescreen-10k"
    layer_phases = ("rescreen_s",)
    setup_repeats = 2

    def setup(self, workdir: str) -> None:
        cfg_path = copy_study(workdir, self.seed, self.sizes.rescreen_runs)
        out = os.path.join(workdir, "out")
        cfg = pipeline.load_pipeline_config(cfg_path, out)
        pipeline.run_pipeline(
            dataclasses.replace(cfg, stages=("simulate",), worker_count=len(os.sched_getaffinity(0)))
        )
        self.ensemble_path = os.path.join(out, "ensemble.jsonl")
        self.ensemble_digest = simulate.ensemble_digest(self.ensemble_path)
        self.config = dataclasses.replace(cfg, stages=("stats", "screen", "mcda", "quantify"))

    def run(self, clock) -> None:
        with clock.phase("rescreen_s"):
            self.manifest = pipeline.run_pipeline(self.config)

    def check(self) -> list[str]:
        self._counts, errors = ensemble_counts(self.ensemble_path, self.config.run_count)
        return errors + self.check_repeatable()

    def digests(self) -> dict:
        return {
            "ensemble": self.ensemble_digest,
            "manifest": sha256_file(os.path.join(self.config.output_dir, "manifest.json")),
        }


# ---------------------------------------------------------------------------
# attractors-wide: a synthetic spec drawn from the seed


def synthetic_spec_document(seed: int, descriptors: int, states: int) -> dict:
    """A study spec with integer scores in -3..3, one forbidden pair, one
    implication and one threshold rule.

    Scores are drawn, then symmetrised (the score of a -> b equals that of
    b -> a, rounded), as for judgements of mutual reinforcement.  Symmetric
    matrices give succession dynamics of similar length for every seed, so
    the seed changes the input without changing how much work it takes.
    """
    rng = np.random.default_rng(seed)
    d, s = descriptors, states
    raw = rng.integers(-3, 4, size=(d, s, d, s))
    scores = np.clip(np.round((raw + raw.transpose(2, 3, 0, 1)) / 2), -3, 3).astype(int)
    ids = [f"D{i}" for i in range(d)]
    cells = [
        {
            "source": ids[i],
            "source_state": si,
            "target": ids[j],
            "target_state": tj,
            "score": int(scores[i, si, j, tj]),
            "confidence": int(rng.integers(1, 6)),
        }
        for i in range(d)
        for si in range(s)
        for j in range(d)
        if i != j
        for tj in range(s)
    ]
    a, b = (int(x) for x in rng.choice(d, 2, replace=False))
    c, e = (int(x) for x in rng.choice(d, 2, replace=False))
    f, g = (int(x) for x in rng.choice([i for i in range(d) if i != e], 2, replace=False))
    forbidden = [[ids[a], int(rng.integers(s))], [ids[b], int(rng.integers(s))]]
    baseline = {ids[i]: int(rng.integers(s)) for i in range(d)}
    if baseline[ids[a]] == forbidden[0][1] and baseline[ids[b]] == forbidden[1][1]:
        baseline[ids[a]] = (forbidden[0][1] + 1) % s
    return {
        "descriptors": [
            {"id": i, "kind": "endogenous", "states": [f"s{k}" for k in range(s)]} for i in ids
        ],
        "cim": cells,
        "baseline": baseline,
        "rules": {
            "forbidden_pairs": [forbidden],
            "implications": [
                {"if": [ids[c], int(rng.integers(s))], "then": [ids[e], int(rng.integers(s))]}
            ],
        },
        "threshold_rules": [
            {
                "conditions": [[ids[f], int(rng.integers(s))], [ids[g], int(rng.integers(s))]],
                "effect": {
                    "source": ids[f],
                    "source_state": int(rng.integers(s)),
                    "target": ids[e],
                    "target_state": int(rng.integers(s)),
                    "delta": 1.0,
                },
            }
        ],
        "time_grid": [2025, 2030],
    }


def consistent_oracle(doc: dict) -> list[tuple[int, ...]]:
    """Consistent scenarios that violate no forbidden pair, computed with
    numpy from the raw cell table, in lexicographic order."""
    ids = [x["id"] for x in doc["descriptors"]]
    pos = {k: i for i, k in enumerate(ids)}
    d, s = len(ids), len(doc["descriptors"][0]["states"])
    scores = np.zeros((d, s, d, s))
    for cell in doc["cim"]:
        scores[pos[cell["source"]], cell["source_state"], pos[cell["target"]], cell["target_state"]] = cell["score"]
    grid = np.array(list(product(range(s), repeat=d)), dtype=np.int64)
    theta = sum(scores[i, grid[:, i]] for i in range(d))  # (N, d, s)
    chosen = np.take_along_axis(theta, grid[:, :, None], axis=2)[:, :, 0]
    ok = (chosen == theta.max(axis=2)).all(axis=1)
    for (a, sa), (b, sb) in doc["rules"]["forbidden_pairs"]:
        ok &= ~((grid[:, pos[a]] == sa) & (grid[:, pos[b]] == sb))
    return [tuple(int(v) for v in row) for row in grid[ok]]


class Attractors(Workload):
    """The engine alone: enumerate every scenario of a synthetic spec, then
    find the attractor of each seeded start."""

    name = "attractors-wide"
    layer_phases = ("enumerate_s", "attractor_scan_s")

    def setup(self, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.doc = synthetic_spec_document(self.seed, self.sizes.descriptors, self.sizes.states)
        path = os.path.join(workdir, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)
        self.spec = model.load_study_spec(path)
        errors = [f for f in model.validate_study_spec(self.spec) if f.severity == "error"]
        if errors:
            raise ValueError(f"synthetic spec invalid: {errors[0].path}: {errors[0].message}")
        self.spec_digest = self.spec.digest()
        rng = np.random.default_rng([self.seed, 1])
        self.starts = [
            tuple(int(v) for v in rng.integers(0, self.sizes.states, self.sizes.descriptors))
            for _ in range(self.sizes.starts)
        ]
        self.oracle = None

    def run(self, clock) -> None:
        spec = self.spec
        with clock.phase("enumerate_s"):
            self.consistent = engine.enumerate_consistent(spec, spec.cim)
        with clock.phase("attractor_scan_s"):
            self.results = [engine.find_attractor(spec, spec.cim, z) for z in self.starts]

    def check(self) -> list[str]:
        spec = self.spec
        errors = []
        if self.oracle is None:
            self.oracle = consistent_oracle(self.doc)
        if self.consistent != self.oracle:
            errors.append(
                f"enumerate_consistent found {len(self.consistent)} scenarios, "
                f"the numpy oracle {len(self.oracle)}"
            )
        for z in self.consistent:
            if not engine.check_consistency(spec, spec.cim, z).consistent:
                errors.append(f"enumerated scenario {z} is not consistent")
            if engine.violates_forbidden(spec, z):
                errors.append(f"enumerated scenario {z} violates a forbidden pair")
        attractors = {r.scenarios for r in self.results if isinstance(r, engine.Attractor)}
        for seq in attractors:
            for k, z in enumerate(seq):
                if engine.succession_step(spec, spec.cim, z) != seq[(k + 1) % len(seq)]:
                    errors.append(f"succession does not reproduce attractor {seq}")
                    break
        kinds = [getattr(r, "kind", "nonconverged") for r in self.results]
        self._counts = {
            "fixed_points": kinds.count("fixed_point"),
            "cycles": kinds.count("cycle"),
            "nonconverged": kinds.count("nonconverged"),
            "attractor_steps": sum(
                r.steps_to_reach if isinstance(r, engine.Attractor) else r.steps
                for r in self.results
            ),
        }
        return errors + self.check_repeatable()

    def digests(self) -> dict:
        h = hashlib.sha256(repr((self.consistent, self.results)).encode()).hexdigest()
        return {"spec": self.spec_digest, "attractors": h}


WORKLOADS = {w.name: w for w in (MiniPipeline, Rescreen, Attractors)}
