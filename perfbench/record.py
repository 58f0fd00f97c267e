"""Record the reference data the workloads check against.

    python3 perfbench/record.py --seeds 100

Run from the root of a checkout of the commit whose output is the
reference.  Rewrites ``perfbench/expected.json`` with, for each seed below
``--seeds``, the digest of every symbolic_laws suite report, and the
surjectivity skip count of each fixture at seed 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args()
    fixture_dir = ROOT / "fixtures"

    digests = {}
    for seed in range(args.seeds):
        digests[str(seed)] = {}
        for suite in W.SYMBOLIC_SUITES:
            code, text = W.run_suite(suite, fixture_dir, seed)
            if code != 0:
                sys.exit(f"{suite} at seed {seed} exited {code}")
            digests[str(seed)][suite] = W.report_digest(text)
        print(f"seed {seed}: {digests[str(seed)]}", file=sys.stderr)

    fixtures = sorted(W.P.load_fixtures(fixture_dir), key=lambda fx: fx.name)
    surjectivity = W.SurjectivityFibers(fixtures, 0, fixture_dir)
    for seconds, error in surjectivity.run_pass():
        if seconds is not None and error is not None:
            sys.exit(f"surjectivity verdict is wrong: {error}")
    skips = {name: n for name, n in surjectivity.skip_counts.items() if n}

    expected = {
        "surjectivity_trials": W.SURJECTIVITY_TRIALS,
        "surjectivity_skips": skips,
        "symbolic_digests": digests,
    }
    path = Path(W.__file__).parent / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
