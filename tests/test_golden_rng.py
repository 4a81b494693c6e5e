"""Golden-output pins for the random-draw paths that ``test_golden.py``
does not take: the per-run resample policy, a Student-t sampling
distribution, Gaussian shocks, shocks disabled, and master seeds whose
entropy is zero, spans two 32-bit words, or is negative.

Each case simulates 200 runs of the mini study at one worker and pins the
sha256 of the saved ``ensemble.jsonl``, and the sha256 of the same ensemble
read back and written in the layout that came before the columnar format
(``tests/legacy_format.py``). A change that moves a digest changes which
numbers are drawn; it must update the digest and say why.
"""

import hashlib
import importlib.resources
import io
import json

import pytest

import legacy_format
from cibpath.model import parse_study_spec
from cibpath.simulate import load_ensemble, save_ensemble, simulate_ensemble

RUNS = 200

GAUSSIAN_SHOCKS = {
    "structural": {"enabled": True, "scale": 0.3, "distribution": "gaussian"},
    "dynamic": {
        "enabled": True, "long_run_sd": 0.4, "persistence": 0.6, "distribution": "gaussian",
    },
}
NO_SHOCKS = {"structural": {"enabled": False}, "dynamic": {"enabled": False}}

#: case -> (document edits, master seed, ensemble sha256, legacy-layout sha256)
CASES = {
    "resample-per-run": (
        {"uncertainty": {"resample": "per_run"}}, 42,
        "145b6becf6fc959495ddd87da732f8faee40a67cfbf2836f3fb73af89aaa44d6",
        "119c139154590efd467abf725a52be96ed860dedec8922ef312851d40302fdb1",
    ),
    "student-t-sampling": (
        {"uncertainty": {"sampling_distribution": {"kind": "student_t", "df": 4}}}, 42,
        "034a727a6c3e1721853413fe1f55b31268ebd5a2cbaeb84cff22d71e13122b6d",
        "f846d8ed8b0bbd30c77fa4ac151d85b9a17ecb480f924297a02d40291144fe56",
    ),
    "gaussian-shocks": (
        {"shocks": GAUSSIAN_SHOCKS}, 42,
        "9bbb890308e40f20f99e2b7ada3819e45e63f7abfd75d42faf412f6c860eade6",
        "fbbfb3f237072426c5061a61de4dae076562e4d3ed801d6e57a2caa007edac4d",
    ),
    "shocks-disabled": (
        {"shocks": NO_SHOCKS}, 42,
        "2cacd1b49dc492a50c37cebc94565c4921d0d2889b87ce39f10292841cacb8af",
        "fafe16e408c5f682499797e43cb51a5bf795f1bba7eabb9927125b77d72992ed",
    ),
    "seed-0": (
        {}, 0, "bdc486e135264b8d735cda0e98d4b8735da7458aad3537b87cb704356309ff05",
        "6db75c6a41d07c028975f8f6bfbc5ab258815d2768bd861145479a3ae628e7d7",
    ),
    "seed-two-words": (
        {}, 2**32 + 7, "8d0dd44b07e2389862a8110c5f346a8bde1bc0c0ff888fda9e485d29df98b8fc",
        "d1ca23b4c1e162c1d9da98be9fc8cca0e3c543b70484a2287c5519caf1d874c6",
    ),
    "seed-negative": (
        {}, -1, "ea9bd43e7f960c4c54a225bac3402733fb57c64e4bba66fa660575db1c7bb4b0",
        "a1ef45be020ab8fd64960cc0e1234a59ecd04c24a88a1c63759a05b07ea4cb0a",
    ),
}


@pytest.mark.parametrize("edits, seed, digest, legacy", CASES.values(), ids=list(CASES))
def test_ensemble_digest(tmp_path, edits, seed, digest, legacy):
    path = importlib.resources.files("cibpath") / "fixtures" / "mini_study.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(edits)
    out = str(tmp_path / "ensemble.jsonl")
    save_ensemble(simulate_ensemble(parse_study_spec(doc), RUNS, seed), out)
    buf = io.StringIO()
    legacy_format.write_ensemble(load_ensemble(out), buf)
    with open(out, "rb") as fh:
        assert (
            hashlib.sha256(fh.read()).hexdigest(),
            hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        ) == (digest, legacy)
