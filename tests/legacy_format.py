"""The ensemble.jsonl and candidates.json byte layouts that came before the
columnar ensemble format, rendered from today's in-memory results.

Each function is a copy of the writer that produced the old layout. The
golden tests render the old bytes with them and compare the digests pinned
for the old layout, which shows that the new files hold the same content.
"""

import json

from cibpath.analytics import REASONS


def write_ensemble(ensemble, fh):
    """One JSON header line, then one JSON record per run."""
    header = {
        "spec_digest": ensemble.spec_digest,
        "master_seed": ensemble.master_seed,
        "run_count": ensemble.run_count,
    }
    fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    for r in ensemble.runs:
        rec = {
            "run": r.run_index,
            **r.pathway.to_doc(),
            "converged": list(r.converged),
            "iterations": list(r.succession_iterations),
        }
        if r.error is not None:
            rec["error"] = r.error
        fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def write_candidates(selected, fh):
    """candidates.json with every rejected pathway as an object, indented."""
    rejected = selected.rejected
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
        "rejected": [
            {**rejected.pathway(i).to_doc(), "reason": REASONS[r]}
            for i, r in enumerate(rejected.labels)
        ],
        "warnings": list(selected.warnings),
    }
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")
