"""Record the JSON reports that `run.py` compares against.

    python3 perfbench/record_golden.py

Runs the first round of `wide_strip` and `reports` at the default seed and
writes the sha256 of each normalised report (see workloads.report_digest)
to perfbench/golden.json, keyed by the command.  A run whose command has a
recorded digest must reproduce that report exactly.  Record only from a
commit whose reports are known to be right.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

DEFAULT_SEED = 1  # run.py's default --seed


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name in ("wide_strip", "reports"):
            for case in workloads.WORKLOADS[name].round(random.Random(DEFAULT_SEED), 0, tmp):
                case.call()
                with open(case.json_path, encoding="utf-8") as fh:
                    golden[case.key] = workloads.report_digest(fh.read(), tmp)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} reports recorded in {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
