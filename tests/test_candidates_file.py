"""candidates.json renders its rejected rows straight from the int8 state
array, by model.json_rows; its bytes must stay those of json.dumps over the
whole document."""

import json

import numpy as np
import pytest

from cibpath import pipeline
from cibpath.analytics import REASONS, flat_rows, screen_candidates, select_candidates
from cibpath.model import json_rows, load_study_spec, parse_study_spec
from cibpath.simulate import DEFAULT_MAX_ITER, simulate_ensemble
from conftest import make_ensemble, two_desc_document

INT64 = np.iinfo(np.int64)


def json_dumps_rows(labels, states):
    """The oracle: the rows as json.dumps writes the list of pairs."""
    rows = list(zip(labels, flat_rows(states).tolist()))
    return json.dumps(rows, separators=(",", ":")).encode()


def rendered_rows(labels, states):
    """The [label, flat states] pairs as one JSON list, rendered by
    json_rows ROW_CHUNK rows at a time with a head per label, as screen_stage
    renders them."""
    names = list(dict.fromkeys(labels))
    heads = [b",[" + json.dumps(name).encode() + b",[" for name in names]
    head_of = np.array([names.index(label) for label in labels], np.intp)
    rows, step = flat_rows(states), pipeline.ROW_CHUNK
    text = b"".join(
        json_rows(rows[a:a + step], heads, head_of[a:a + step], b"]]")
        for a in range(0, len(rows), step)
    )
    return b"[" + text[1:] + b"]"


def random_table(rng, rows, periods, descriptors, top=128):
    states = rng.integers(0, top, (rows, periods, descriptors)).astype(np.int8)
    return [REASONS[r] for r in rng.integers(0, len(REASONS), rows)], states


@pytest.mark.parametrize("seed", range(30))
def test_rows_equal_json_dumps_on_random_tables(seed, monkeypatch):
    """Widths 1..40, states with 1, 2 and 3 digits, one-period grids and
    chunks of a few rows, so that rows cross chunk edges."""
    rng = np.random.default_rng(seed)
    periods = 1 if seed % 3 == 0 else int(rng.integers(2, 9))
    descriptors = int(rng.integers(1, 40 // periods + 1))
    top = (4, 12, 128)[seed % 3]
    labels, states = random_table(rng, int(rng.integers(1, 200)), periods, descriptors, top)
    monkeypatch.setattr(pipeline, "ROW_CHUNK", int(rng.integers(1, 50)))
    assert rendered_rows(labels, states) == json_dumps_rows(labels, states)


@pytest.mark.parametrize("shape", [
    (0, 6, 5), (0, 1, 1), (1, 1, 1), (3, 1, 40), (2, 8, 5), (5000, 6, 5),
])
def test_rows_equal_json_dumps_at_the_edges(shape):
    """No rows, width 1 and 40, and more rows than one chunk."""
    labels, states = random_table(np.random.default_rng(sum(shape)), *shape)
    assert rendered_rows(labels, states) == json_dumps_rows(labels, states)


def test_every_int8_state_renders():
    states = np.arange(128, dtype=np.int8).reshape(128, 1, 1)
    labels = [REASONS[i % len(REASONS)] for i in range(128)]
    assert rendered_rows(labels, states) == json_dumps_rows(labels, states)
    wide = np.arange(128, dtype=np.int8)[::-1].reshape(4, 1, 32)
    assert rendered_rows(labels[:4], wide) == json_dumps_rows(labels[:4], wide)


@pytest.mark.parametrize("seed", range(12))
def test_labelled_multi_digit_and_negative_rows_equal_json_dumps(seed, monkeypatch):
    """Numbers of 1 to 19 digits of either sign, int64's least and largest
    value, and labels of any length, also across chunk edges."""
    rng = np.random.default_rng(seed)
    rows, width = int(rng.integers(1, 60)), int(rng.integers(1, 30))
    table = rng.integers(INT64.min, INT64.max, (rows, width), endpoint=True)
    table //= 10 ** rng.integers(0, 19, (rows, width))
    table[rng.random((rows, width)) < 0.1] = INT64.min
    table[rng.random((rows, width)) < 0.1] = INT64.max
    names = ["", "a", "\u00e9\"quoted\"", *REASONS]
    labels = [names[i] for i in rng.integers(0, len(names), rows)]
    monkeypatch.setattr(pipeline, "ROW_CHUNK", int(rng.integers(1, 20)))
    assert rendered_rows(labels, table) == json_dumps_rows(labels, table)


def json_dumps_document(selected) -> bytes:
    """candidates.json as json.dumps wrote the whole document."""
    rejected = selected.rejected
    reasons = [REASONS[r] for r in rejected.labels]
    doc = {
        "candidates": [
            {
                "id": f"C{i + 1}",
                "rationale": c.rationale,
                "terminal_frequency": c.terminal_frequency,
                **c.pathway.to_doc(),
            }
            for i, c in enumerate(selected.candidates)
        ],
        "rejected": {
            "counts": {reason: reasons.count(reason) for reason in REASONS},
            "periods": list(rejected.periods),
            "rows": list(zip(reasons, flat_rows(rejected.states).tolist())),
        },
        "warnings": list(selected.warnings),
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def assert_screen_stage_writes_json_dumps(ensemble, spec, screening, k, out_dir):
    resolved = pipeline.resolve_screening(screening, spec)
    (path,), _ = pipeline.screen_stage(ensemble, spec, resolved, k, str(out_dir))
    screened = screen_candidates(ensemble, spec, resolved)
    selected = select_candidates(screened, k, resolved)
    with open(path, "rb") as fh:
        written = fh.read()
    assert written == json_dumps_document(selected)
    return selected


@pytest.mark.parametrize("chunk", [pipeline.ROW_CHUNK, 50])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_screen_stage_writes_the_json_dumps_document(
    mini_spec_path, seed, chunk, tmp_path, monkeypatch
):
    monkeypatch.setattr(pipeline, "ROW_CHUNK", chunk)
    spec = load_study_spec(mini_spec_path)
    ensemble = simulate_ensemble(spec, 300, seed, DEFAULT_MAX_ITER, 1)
    screening = {"outcome_descriptor": "RD", "best_outcome_state": 2}
    selected = assert_screen_stage_writes_json_dumps(ensemble, spec, screening, 4, tmp_path)
    assert len(selected.rejected) > 2 * 50  # rows in three chunks or more at 50


def test_screen_stage_rejecting_nothing_writes_the_json_dumps_document(tmp_path):
    doc = two_desc_document()
    spec = parse_study_spec(doc)
    ensemble = make_ensemble(
        [[(0, 0), (0, 1), (1, 1)], [(0, 0), (1, 0), (1, 0)], [(0, 1), (1, 1), (1, 1)]],
        digest=spec.digest(),
    )
    selected = assert_screen_stage_writes_json_dumps(
        ensemble, spec, {"outcome_descriptor": "A"}, 2, tmp_path
    )
    assert len(selected.rejected) == 0
