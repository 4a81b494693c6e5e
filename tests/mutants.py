"""Hand-run mutation check: tier-1 must fail on each mutant in MUTANTS.

Each mutant is one textual edit of one file of the tree. For each, the
tree at REV (default HEAD; after `git add -A`, `$(git write-tree)` checks
the staged work) is copied with `git archive` into a directory of its own,
the edit is applied, and tier-1 runs there, stopping at its first failure.
The unedited tree runs first and must pass. Run from the repository root:

    python tests/mutants.py [REV] [--scratch DIR]

It prints one line per mutant and exits 1 if the unedited tree fails or a
mutant survives. A change that adds a check adds a mutant that removes it.
pytest does not collect this file.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: (what the mutant does, file, text, replacement); the text occurs once in the file.
MUTANTS = (
    ("cyclic drift bound widened to [-2, 2]", "src/cibpath/model.py",
     "if not -1.0 <= cp.drift <= 1.0:", "if not -2.0 <= cp.drift <= 2.0:"),
    ("time_scale factor refused only below -1", "src/cibpath/model.py",
     '        if f < 0:\n            err("uncertainty.time_scale"',
     '        if f < -1:\n            err("uncertainty.time_scale"'),
    ("6 states accepted", "src/cibpath/model.py",
     "if not 2 <= d.state_count <= 5:", "if not 2 <= d.state_count <= 6:"),
    ("MCDA ties in input order, not by pathway id", "src/cibpath/mcda.py",
     "key=lambda pv: (-pv[1], pv[0])", "key=lambda pv: -pv[1]"),
    ("IDENTITY_TOL loosened to 1e-3", "src/cibpath/quantify.py",
     "IDENTITY_TOL = 1e-9", "IDENTITY_TOL = 1e-3"),
    ("a forbidden pair blocks one way only", "src/cibpath/engine.py",
     "        theta[current[:, a] == a_state, b, b_state] = -np.inf\n", ""),
    ("an implication read from the current state, not the next", "src/cibpath/engine.py",
     "nxt[nxt[:, a] == a_state, c] = c_state", "nxt[current[:, a] == a_state, c] = c_state"),
    ("a threshold effect subtracted", "src/cibpath/engine.py",
     "rows[hit, e.source, e.target, e.target_state] += e.delta",
     "rows[hit, e.source, e.target, e.target_state] -= e.delta"),
    # engine
    ("enumeration without the forbidden pairs", "src/cibpath/engine.py",
     "keep = ~deficits.any(1) & ~_violations(spec, states)", "keep = ~deficits.any(1)"),
    ("no mask on padded states in succession", "src/cibpath/engine.py",
     "    theta += eta[runs]\n    if spec.padded is not None:\n        theta[:, spec.padded] = -np.inf\n",
     "    theta += eta[runs]\n"),
    ("implications applied to locked descriptors", "src/cibpath/engine.py",
     "if not locked[c]:", "if True:"),
    ("no forbidden-pair mask in succession", "src/cibpath/engine.py",
     "        theta[current[:, b] == b_state, a, a_state] = -np.inf\n"
     "        theta[current[:, a] == a_state, b, b_state] = -np.inf\n", "        pass\n"),
    ("NonConvergence.steps off by one", "src/cibpath/engine.py",
     "return NonConvergence(max_steps, sequence[first])",
     "return NonConvergence(max_steps + 1, sequence[first])"),
    ("Attractor.steps_to_reach off by one", "src/cibpath/engine.py",
     "return Attractor(kind, tuple(sequence[first:first + length]), first)",
     "return Attractor(kind, tuple(sequence[first:first + length]), first + 1)"),
    ("a threshold rule that always fires", "src/cibpath/engine.py",
     "        hit = current[:, e.source] == e.source_state\n"
     "        for i, state in rule.conditions:\n            hit &= current[:, i] == state\n",
     "        hit = np.ones(len(current), bool)\n"),
    # robustness_fraction
    ("robustness noise halved", "src/cibpath/simulate.py", "noise *= factor", "noise *= factor / 2"),
    ("robustness streams keyed by position in the chunk, not by sample", "src/cibpath/simulate.py",
     'source.block(("robustness",), samples)', 'source.block(("robustness",), range(len(samples)))'),
    # quantify
    ("extremes min_count compared with >", "src/cibpath/quantify.py",
     "counts[t] >= min_count", "counts[t] > min_count"),
    ("the high outcome extreme one state too low", "src/cibpath/quantify.py",
     '(desc.state_count - 1, "high")', '(desc.state_count - 2, "high")'),
    ("the modal terminal taken as the least frequent", "src/cibpath/quantify.py",
     "modal = max(counts, key=by_count)", "modal = min(counts, key=by_count)"),
    # validation
    ("sigma allowed to rise with confidence by up to 1", "src/cibpath/model.py",
     "if high < low:", "if high < low - 1:"),
    ("no baseline forbidden-pair check", "src/cibpath/model.py",
     "if again.baseline[a] == a_s and again.baseline[b] == b_s:", "if False:"),
    ("no all-zero row warning", "src/cibpath/model.py",
     "if row_mask.any() and not scores[i, si][row_mask].any():", "if False:"),
    ("persistence 1 accepted", "src/cibpath/model.py",
     "not abs(dyn.persistence) < 1", "not abs(dyn.persistence) <= 1"),
    # MCDA
    ("ties reported only among three or more", "src/cibpath/mcda.py",
     "if len(ps) > 1", "if len(ps) > 2"),
    ("personas with the same weights not merged", "src/cibpath/mcda.py",
     "distinct.setdefault(wv, totals)", "distinct.setdefault(persona.id, totals)"),
    # screening
    ("late rush accumulated across periods", "src/cibpath/analytics.py",
     "late_rush = step[:, config.outcome]", "late_rush |= step[:, config.outcome]"),
    ("the Wilson upper bound not clipped at 1", "src/cibpath/analytics.py",
     "min(1.0, centre + half)", "centre + half"),
    ("discontinuity compared with >", "src/cibpath/analytics.py",
     ">= config.discontinuity_steps", "> config.discontinuity_steps"),
    # the reference checks
    ("no check of the screening config's references", "src/cibpath/analytics.py",
     '    check_refs(spec.state_counts, refs, "the screening config")\n', ""),
    ("rule references not checked for a pair of ints", "src/cibpath/engine.py",
     "type(i) is type(s) is int and ", ""),
    # identities
    ("a dimension adjusted by two identities accepted", "src/cibpath/quantify.py",
     "if d in adjusted:", "if False:"),
    ("a repair that scales by less than zero accepted", "src/cibpath/quantify.py",
     "if scale <= 0.0:", "if not current:"),
    ("no check that every identity holds after the repairs", "src/cibpath/quantify.py",
     "if abs(lhs - rhs) > IDENTITY_TOL * size:", "if False:"),
)

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def tier1_passes(rev: str, scratch: str, mutant=None) -> bool:
    """Whether tier-1 passes on a copy of the tree at rev with mutant's edit."""
    root = Path(tempfile.mkdtemp(prefix="mutant-", dir=scratch))
    try:
        tar = root / "tree.tar"
        subprocess.run(["git", "archive", "--output", str(tar), rev], check=True)
        subprocess.run(["tar", "-xf", str(tar), "-C", str(root)], check=True)
        if mutant is not None:
            _, file, text, replacement = mutant
            source = (root / file).read_text()
            if source.count(text) != 1:
                sys.exit(f"{file}: the text of mutant {mutant[0]!r} occurs {source.count(text)} times")
            (root / file).write_text(source.replace(text, replacement))
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            TIER1, cwd=root, env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        )
        return done.returncode == 0
    finally:
        shutil.rmtree(root)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--scratch", default=None, help="where the copies go (default: the temp dir)")
    args = parser.parse_args()
    if not tier1_passes(args.rev, args.scratch):
        sys.exit("tier-1 fails on the unedited tree")
    survivors = 0
    for mutant in MUTANTS:
        survived = tier1_passes(args.rev, args.scratch, mutant)
        survivors += survived
        print(f"{'SURVIVED' if survived else 'killed  '}  {mutant[0]}", flush=True)
    sys.exit(1 if survivors else 0)


if __name__ == "__main__":
    main()
