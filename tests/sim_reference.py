"""Reference simulator: one scenario at a time, in plain Python.

A copy of the per-run simulation loop that ``cibpath.simulate`` replaced
with its block kernel, kept as the oracle the kernel must match exactly:
per run and period it samples the period matrix, applies the structural
shock, moves the cyclic descriptors, advances the AR(1) perturbation and
iterates ``reference_succession_step`` with ``iterate_to_attractor``.
Succession, the attractor loop, the cyclic move
(``transition_cyclic_state``) and the float formulas of the draws are
written out here rather than taken from ``cibpath.engine``,
``cibpath.simulate`` and ``cibpath.uncertainty``: this module imports no
law from ``cibpath``, only its data types, errors and score bounds, so a
change to a law there shows as a mismatch.
"""

from __future__ import annotations

import math

import numpy as np

from cibpath.errors import ConfigError, InfeasibilityError
from cibpath.model import SCORE_MAX, SCORE_MIN
from cibpath.simulate import Pathway, RunRecord


def reference_succession_step(spec, cim, scenario, locked=frozenset(), perturbation=None):
    """Oracle for succession_step, written without the engine's batch code:
    the full threshold-adjusted matrix, feasible states rebuilt from the
    forbidden pairs for every descriptor, and a running argmax."""
    applicable = [
        r.effect
        for r in spec.threshold_rules
        if all(scenario[i] == s for i, s in r.conditions)
    ]
    scores = cim.scores.copy()
    for e in applicable:
        scores[e.source, e.source_state, e.target, e.target_state] += e.delta
    theta = scores[np.arange(len(scenario)), list(scenario)].sum(axis=0)
    if perturbation is not None:
        theta = theta + perturbation
    locked_idx = {spec.index_of(did) for did in locked}
    new = list(scenario)
    for j, d in enumerate(spec.descriptors):
        if j in locked_idx:
            continue
        blocked = set()
        for (ai, a_s), (bi, b_s) in spec.rules.forbidden_pairs:
            if ai == j and scenario[bi] == b_s:
                blocked.add(a_s)
            elif bi == j and scenario[ai] == a_s:
                blocked.add(b_s)
        best_state, best_score, current_is_max = -1, -np.inf, False
        for l in range(d.state_count):
            if l in blocked:
                continue
            v = theta[j, l]
            if v > best_score:
                best_score, best_state, current_is_max = v, l, l == scenario[j]
            elif v == best_score and l == scenario[j]:
                current_is_max = True
        if best_state < 0:
            raise InfeasibilityError(d.id)
        new[j] = scenario[j] if current_is_max else best_state
    for (ai, a_s), (ci, c_s) in spec.rules.implications:
        if new[ai] == a_s and ci not in locked_idx:
            new[ci] = c_s
    return tuple(new)


def transition_cyclic_state(params, current, state_count, rng):
    """Stochastic ordinal move: stay, one step, or two steps, direction up
    with probability (1 + drift) / 2. Moves blocked at the scale boundary
    stay put."""
    r = rng.random()
    if r < params.stay:
        return current
    steps = 1 if r < params.stay + params.step else 2
    up = rng.random() < (1.0 + params.drift) / 2.0
    target = current + (steps if up else -steps)
    if 0 <= target < state_count:
        return target
    return current


def iterate_to_attractor(step, start, max_steps):
    """Apply step from start until a scenario recurs, for at most max_steps
    steps.

    Returns the distinct scenarios visited, in order, and the index at
    which the recurring scenario was first seen: the attractor is
    sequence[first:], a fixed point when that has one member. first is None
    when max_steps steps pass without a recurrence; sequence[-1] is then
    the scenario after the last step.
    """
    visited = {start: 0}
    sequence = [start]
    for _ in range(max_steps):
        nxt = step(sequence[-1])
        first = visited.get(nxt)
        if first is not None:
            return sequence, first
        visited[nxt] = len(sequence)
        sequence.append(nxt)
    return sequence, None


def draw_scaled(rng, distribution, sd, shape):
    if distribution.kind == "gaussian":
        return rng.standard_normal(shape) * sd
    df = distribution.df or 0
    if df <= 2:
        raise ConfigError(f"student_t df={df}")
    return rng.standard_t(df, shape) * (sd * math.sqrt((df - 2) / df))


def perturbed(cim, noise):
    noise += cim.scores
    np.clip(noise, SCORE_MIN, SCORE_MAX, out=noise)
    noise[~cim.valid_mask] = 0.0
    return noise


def sample_cim(spec, rng, period):
    cim = spec.cim
    noise = draw_scaled(rng, spec.uncertainty.sampling_distribution, 1.0, cim.scores.shape)
    noise *= spec.sigma_tables[period]
    return cim.with_scores(perturbed(cim, noise))


def apply_structural_shock(cim, rng, config):
    noise = draw_scaled(rng, config.distribution, config.scale, cim.scores.shape)
    return cim.with_scores(perturbed(cim, noise))


def advance_dynamic_shock(eta, rng, config):
    rho, tau = config.persistence, config.long_run_sd
    if not abs(rho) < 1:
        raise ConfigError(f"|rho| = {abs(rho):g}")
    u = draw_scaled(rng, config.distribution, tau * math.sqrt(1.0 - rho * rho), eta.shape)
    return rho * eta + u


def simulate_period(spec, prev, period, eta, source, run_index, max_iter, run_cim=None):
    """(realised scenario, new eta, converged flag, iterations) of one period."""
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1 (got {max_iter})")
    if run_cim is not None:
        period_cim = run_cim
    else:
        period_cim = sample_cim(spec, source.substream(run_index, period, "cim"), period)
    if spec.shocks.structural.enabled:
        period_cim = apply_structural_shock(
            period_cim,
            source.substream(run_index, period, "structural"),
            spec.shocks.structural,
        )
    locked = set()
    start = list(prev)
    cyclic_rng = source.substream(run_index, period, "cyclic")
    for j in spec.cyclic_indices:
        d = spec.descriptors[j]
        start[j] = transition_cyclic_state(d.cyclic_params, prev[j], d.state_count, cyclic_rng)
        locked.add(d.id)
    if spec.shocks.dynamic.enabled:
        eta = advance_dynamic_shock(
            eta, source.substream(run_index, period, "dynamic"), spec.shocks.dynamic
        )
        perturbation = eta
    else:
        perturbation = None
    locked_frozen = frozenset(locked)
    sequence, first = iterate_to_attractor(
        lambda z: reference_succession_step(spec, period_cim, z, locked_frozen, perturbation),
        tuple(start),
        max_iter,
    )
    if first is None:
        return sequence[-1], eta, False, max_iter
    cycle = len(sequence) - first
    if cycle == 1:
        return sequence[first], eta, True, first
    return sequence[first + (max_iter - first) % cycle], eta, False, max_iter


def initial_eta(spec):
    return np.zeros((len(spec.descriptors), max(spec.state_counts)))


def simulate_run(spec, run_index, source, max_iter):
    """One full pathway, infeasibility recorded, as a RunRecord."""
    grid = spec.time_grid
    run_cim = None
    if spec.uncertainty.resample == "per_run":
        run_cim = sample_cim(spec, source.substream(run_index, grid[0], "cim"), grid[0])
    entries, converged, iterations = [(grid[0], spec.baseline)], [True], [0]
    eta, scenario, error = initial_eta(spec), spec.baseline, None
    for period in grid[1:]:
        try:
            scenario, eta, conv, iters = simulate_period(
                spec, scenario, period, eta, source, run_index, max_iter, run_cim
            )
        except InfeasibilityError as e:
            error = str(e)
            break
        entries.append((period, scenario))
        converged.append(conv)
        iterations.append(iters)
    return RunRecord(
        run_index=run_index,
        pathway=Pathway(tuple(entries)),
        converged=tuple(converged),
        succession_iterations=tuple(iterations),
        error=error,
    )
