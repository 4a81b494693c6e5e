"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with its criterion tag so the run log
doubles as a sign-off sheet. Run with `pytest -s tests/test_acceptance.py`
to see the lines as they land.
"""

import random
import time

import numpy as np

from cibpath.analytics import (
    REASONS,
    ScreeningConfig,
    screen_candidates,
    select_candidates,
    state_share_series,
    wilson_interval,
)
from cibpath.engine import (
    check_consistency,
    enumerate_consistent,
    find_attractor,
    succession_step,
)
from cibpath.errors import ParseError
from cibpath.mcda import McdaInput, Persona, rank_pathways
from cibpath.model import (
    CyclicParams,
    Distribution,
    DynamicShockConfig,
    StructuralShockConfig,
    parse_study_spec,
)
from cibpath.quantify import (
    Dimension,
    Identity,
    TranslationMatrix,
    enforce_identities,
    quantify_pathway,
)
from cibpath.simulate import (
    Pathway,
    RandomSource,
    _cyclic_moves,
    ensemble_digest,
    robustness_fraction,
    save_ensemble,
    simulate_ensemble,
)
from cibpath.uncertainty import (
    advance_dynamic_shock,
    apply_structural_shock,
    sample_cim,
)

from conftest import (
    brute_force_consistent,
    make_ensemble,
    random_spec_document,
    two_desc_document,
)


def report(tag: str, ok: bool, detail: str = "") -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_01_oracle_equivalence():
    rng = random.Random(20260826)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        doc = random_spec_document(rng)
        spec = parse_study_spec(doc)
        if enumerate_consistent(spec, spec.cim) != brute_force_consistent(doc):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "oracle-equivalence",
        mismatches == 0 and elapsed < 30.0,
        f"200 specs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_02_attractor_soundness():
    rng = random.Random(2)
    violations = 0
    for _ in range(100):
        doc = random_spec_document(rng)
        spec = parse_study_spec(doc)
        start = tuple(
            rng.randrange(d.state_count) for d in spec.descriptors
        )
        att = find_attractor(spec, spec.cim, start, 5000)
        if att.kind == "fixed_point":
            if not check_consistency(spec, spec.cim, att.scenarios[0]).consistent:
                violations += 1
        else:
            n = len(att.scenarios)
            for i, z in enumerate(att.scenarios):
                if succession_step(spec, spec.cim, z) != att.scenarios[(i + 1) % n]:
                    violations += 1
    report("attractor-soundness", violations == 0, f"{violations} violations")


def test_03_fixture_succession():
    spec = parse_study_spec(two_desc_document())
    consistent = enumerate_consistent(spec, spec.cim)
    fp = find_attractor(spec, spec.cim, (0, 0), 50)
    cyc = find_attractor(spec, spec.cim, (0, 1), 50)
    ok = (
        consistent == [(0, 0), (1, 1)]
        and fp.kind == "fixed_point"
        and fp.scenarios == ((0, 0),)
        and cyc.kind == "cycle"
        and set(cyc.scenarios) == {(0, 1), (1, 0)}
    )
    report("fixture-succession", ok)


def test_04_degenerate_determinism():
    doc = two_desc_document(
        {
            "uncertainty": {
                "confidence_sigma": {"1": 0, "2": 0, "3": 0, "4": 0, "5": 0},
                "time_scale": {"2025": 1.0, "2030": 1.0, "2035": 1.0},
            },
            "shocks": {
                "structural": {"enabled": False},
                "dynamic": {"enabled": False},
            },
        }
    )
    spec = parse_study_spec(doc)
    ens = simulate_ensemble(spec, 1000, 7)
    pathways = {r.pathway for r in ens.runs}
    series = state_share_series(ens, spec, "A")
    terminal_state = ens.runs[0].pathway.terminal()[0]
    cell = dict(series.cells)[2035][terminal_state]
    # the Wilson lower bound at n successes of n tightens toward 1
    low_small = wilson_interval(100, 100)[0]
    low_large = wilson_interval(100_000, 100_000)[0]
    ok = (
        len(pathways) == 1
        and cell.share == 1.0
        and cell.high == 1.0
        and low_large > low_small > 0.9
    )
    report("degenerate-determinism", ok, f"{len(pathways)} distinct pathway(s)")


def test_05_sampling_calibration():
    doc = two_desc_document(
        {"time_grid": [2025], "uncertainty": {"time_scale": {"2025": 1.0}}}
    )
    # a mu = 0 confidence-5 cell: zero out one judgement
    for cell in doc["cim"]:
        if cell["source"] == "A" and cell["source_state"] == 0 and cell["target_state"] == 0:
            cell["score"] = 0
    spec = parse_study_spec(doc)
    source = RandomSource(11)
    n = 100_000
    draws = np.empty(n)
    ai, bi = 0, 1
    for k in range(n):
        cim = sample_cim(spec, source.substream("calib", k), 2025)
        draws[k] = cim.scores[ai, 0, bi, 0]
    sd = draws.std()
    in_range = bool(draws.min() >= -3.0 and draws.max() <= 3.0)

    shock_cfg = StructuralShockConfig(True, 0.30, Distribution("gaussian"))
    sdraws = np.empty(n)
    for k in range(n):
        shocked = apply_structural_shock(
            spec.cim, source.substream("shock", k), shock_cfg
        )
        sdraws[k] = shocked.scores[ai, 0, bi, 0] - spec.cim.scores[ai, 0, bi, 0]
    ssd = sdraws.std()
    ok = 0.19 <= sd <= 0.21 and 0.295 <= ssd <= 0.305 and in_range
    report(
        "sampling-calibration", ok, f"cell sd {sd:.4f}, shock sd {ssd:.4f}"
    )


def test_06_ar1_stationarity():
    cfg = DynamicShockConfig(True, long_run_sd=1.0, persistence=0.6)
    eta, rng = np.zeros((1, 1)), np.random.default_rng(6)
    xs = np.empty(100_000)
    for i in range(xs.size):
        eta = advance_dynamic_shock(eta, rng, cfg)
        xs[i] = eta[0, 0]
    sd = xs[500:].std()
    ok = 0.97 <= sd <= 1.03
    report("ar1-stationarity", ok, f"long-run sd {sd:.4f}")


def test_07_cyclic_frequencies():
    params = CyclicParams(stay=0.7, step=0.25, step2=0.05, drift=0.0)
    rng = np.random.default_rng(77)
    n = 10_000
    moved = np.abs(_cyclic_moves([(params, 5)], np.full((n, 1), 2), rng.random((n, 2))) - 2)
    counts = dict(zip(("stay", "step", "step2"), np.bincount(moved.ravel(), minlength=3).tolist()))
    ok = True
    details = []
    for kind, p in (("stay", 0.7), ("step", 0.25), ("step2", 0.05)):
        low, high = wilson_interval(counts[kind], n)
        freq = counts[kind] / n
        details.append(f"{kind} {freq:.3f}")
        if not low <= p <= high:
            ok = False
    frozen = CyclicParams(stay=1.0, step=0.0, step2=0.0, drift=0.0)
    ok = ok and bool(
        (_cyclic_moves([(frozen, 5)], np.full((1000, 1), 2), rng.random((1000, 2))) == 2).all()
    )
    report("cyclic-frequencies", ok, ", ".join(details))


def test_08_robustness_monotone():
    spec = parse_study_spec(two_desc_document())
    fractions = []
    for scale in (0.0, 0.15, 0.30, 0.60):
        cfg = StructuralShockConfig(True, scale, Distribution("gaussian"))
        fractions.append(robustness_fraction(spec, (0, 0), cfg, 10_000, 8))
    ok = fractions[0] == 1.0 and all(
        later <= earlier + 0.02 for earlier, later in zip(fractions, fractions[1:])
    )
    report(
        "robustness-monotone", ok,
        "fractions " + ", ".join(f"{f:.3f}" for f in fractions),
    )


def test_09_mcda_exactness():
    inp = McdaInput(
        pathways=("p1", "p2"),
        criteria=("c1", "c2"),
        scores=((4.0, 2.0), (3.0, 5.0)),
        personas=(
            Persona("w1", (("c1", 0.5), ("c2", 0.5))),
            Persona("w2", (("c1", 0.8), ("c2", 0.2))),
        ),
    )
    ranking = rank_pathways(inp)
    exact = ranking.value_of("p1") == 3.3 and ranking.value_of("p2") == 3.7
    order_ok = ranking.order == ("p2", "p1")

    reference = ranking.values
    stable = True
    for personas in (
        (inp.personas[1], inp.personas[0]),
        inp.personas + (Persona("w1_dup", inp.personas[0].weights),),
    ):
        other = rank_pathways(
            McdaInput(inp.pathways, inp.criteria, inp.scores, personas)
        )
        if other.values != reference:
            stable = False

    rejected = False
    try:
        McdaInput(
            inp.pathways, inp.criteria, inp.scores,
            (Persona("w", (("c1", 0.5), ("c2", 0.6))),),
        )
    except ParseError:
        rejected = True
    ok = exact and order_ok and stable and rejected
    report(
        "mcda-exactness", ok,
        f"V_p1={ranking.value_of('p1')}, V_p2={ranking.value_of('p2')}",
    )


def _three_state_spec():
    doc = two_desc_document()
    for d in doc["descriptors"]:
        d["states"] = ["Low", "Medium", "High"]
    doc["cim"] = [
        {"source": s, "source_state": si, "target": t, "target_state": ti,
         "score": 0, "confidence": 3}
        for s, t in [("A", "B"), ("B", "A")]
        for si in range(3)
        for ti in range(3)
    ]
    doc["time_grid"] = [2025, 2030, 2035, 2040, 2045, 2050]
    return parse_study_spec(doc)


def test_10_quantifier_exactness():
    spec = _three_state_spec()
    price = Dimension("price", "EUR/tCO2", "A")
    matrix = TranslationMatrix(
        entries={("price", 0): 50.0, ("price", 1): 100.0, ("price", 2): 200.0}
    )
    periods = (2025, 2030, 2035, 2040, 2045, 2050)
    pw = Pathway(tuple(
        (p, (s, 0)) for p, s in zip(periods, (1, 1, 1, 1, 2, 2))
    ))
    qp = quantify_pathway(pw, (price,), matrix, spec)
    series = [qp.values["price", p] for p in periods]
    step_series_ok = series == [100.0, 100.0, 100.0, 100.0, 200.0, 200.0]

    rng = random.Random(10)
    counts_ok = True
    for _ in range(100):
        states = [rng.randrange(3) for _ in periods]
        pw = Pathway(tuple((p, (s, 0)) for p, s in zip(periods, states)))
        qp = quantify_pathway(pw, (price,), matrix, spec)
        vals = [qp.values["price", p] for p in periods]
        steps = sum(1 for a, b in zip(vals, vals[1:]) if a != b)
        changes = sum(1 for a, b in zip(states, states[1:]) if a != b)
        if steps != changes:
            counts_ok = False

    dims = (
        Dimension("a", "", "A"), Dimension("b", "", "A"), Dimension("total", "", "A")
    )
    m2 = TranslationMatrix(entries={
        ("a", 0): 30.0, ("a", 1): 35.0, ("a", 2): 40.0,
        ("b", 0): 50.0, ("b", 1): 55.0, ("b", 2): 75.0,
        ("total", 0): 100.0, ("total", 1): 100.0, ("total", 2): 100.0,
    })
    ident = Identity(
        "sum", (("a", 1.0), ("b", 1.0)), ("a", "b"), rhs_dimension="total"
    )
    identity_ok = True
    for _ in range(20):
        states = [rng.randrange(3) for _ in periods]
        pw = Pathway(tuple((p, (s, 0)) for p, s in zip(periods, states)))
        qp = enforce_identities(quantify_pathway(pw, dims, m2, spec), (ident,))
        for p in periods:
            lhs = qp.values["a", p] + qp.values["b", p]
            if abs(lhs - qp.values["total", p]) > 1e-9:
                identity_ok = False
    ok = step_series_ok and counts_ok and identity_ok
    report("quantifier-exactness", ok, f"series {series}")


def test_11_parallel_determinism(mini_spec, tmp_path):
    digests = {}
    timings = {}
    for workers in (1, 4, 8):
        path = str(tmp_path / f"ens_w{workers}.jsonl")
        start = time.perf_counter()
        ens = simulate_ensemble(mini_spec, 10_000, 42, worker_count=workers)
        timings[workers] = time.perf_counter() - start
        save_ensemble(ens, path)
        digests[workers] = ensemble_digest(path)
    identical = len(set(digests.values())) == 1
    fast = all(t < 60.0 for t in timings.values())
    report(
        "parallel-determinism",
        identical and fast,
        "10k runs; "
        + ", ".join(f"w{w} {t:.1f}s" for w, t in timings.items()),
    )


def test_12_wilson_formula():
    low, high = wilson_interval(5000, 10_000, 0.95)
    centre_ok = abs(low - 0.4902) < 1e-4 and abs(high - 0.5098) < 1e-4
    zero = wilson_interval(0, 20)
    full = wilson_interval(20, 20)
    ok = centre_ok and zero[0] == 0.0 and full[1] == 1.0
    report("wilson-formula", ok, f"({low:.5f}, {high:.5f})")


def test_13_screening():
    spec = _three_state_spec()
    periods = (2025, 2030, 2035, 2040, 2045, 2050)
    config = ScreeningConfig(outcome_descriptor="A")

    def reason_of(states):
        ens = make_ensemble([[(s, 0) for s in states]], periods=periods)
        result = screen_candidates(ens, spec, config)
        return REASONS[result.rejected.labels[0]] if result.rejected else None

    reasons_ok = (
        reason_of((0, 1, 1, 2, 2, 1)) == "backsliding"
        and reason_of((0, 0, 0, 0, 0, 2)) == "late_rush"
        and reason_of((0, 2, 2, 2, 2, 2)) == "discontinuity"
        and reason_of((0, 0, 1, 1, 2, 2)) is None
    )

    base = [[(0, 0), (0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]] * 6
    alt = [[(0, 0), (0, 1), (0, 1), (1, 1), (1, 2), (2, 2)]] * 3
    mid = [[(0, 0), (0, 0), (0, 1), (1, 1), (1, 1), (1, 1)]] * 2
    low = [[(0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)]] * 1
    ens = make_ensemble(base + alt + mid + low, periods=periods)
    screened = screen_candidates(ens, spec, config)
    selected = select_candidates(screened, 3, ("A", 2), spec)
    terminals = [c.pathway.terminal() for c in selected.candidates]
    best_count = sum(1 for t in terminals if t[0] == 2)
    select_ok = len(selected.candidates) == 3 and best_count >= 2
    report(
        "screening", reasons_ok and select_ok,
        f"best-outcome terminals {best_count}/3",
    )
