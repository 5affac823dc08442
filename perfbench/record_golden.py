"""Record the golden report bodies that perfbench/run.py checks runs against.

usage: python3 perfbench/record_golden.py

Run from the root of a source checkout.  Runs every workload once per seed
in SEEDS (seed 0 among them, because verdicts on other seeds are compared
with it) and writes perfbench/golden.json.  A run that exits nonzero or
does not pass is not recorded.  Record again only when a change is meant to
alter report bodies.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run

SEEDS = (run.DEFAULT_SEED, 1, 2)


def main() -> int:
    golden = {}
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    parent = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    try:
        for workload in sorted(run.WORKLOADS):
            entry = {"argv": run.WORKLOADS[workload], "seeds": {}}
            for seed in SEEDS:
                argv = run.WORKLOADS[workload] + ["--seed", str(seed)]
                child = run.spawn("plain", argv, parent,
                                  time.monotonic() + run.KILL_AFTER_S)
                if child.rc != 0:
                    print(f"{workload} seed {seed}: exit code {child.rc}\n"
                          f"{child.stderr}", file=sys.stderr)
                    return 1
                body = json.loads(child.stdout)["body"]
                if body["overall"] != "pass":
                    print(f"{workload} seed {seed}: overall {body['overall']}",
                          file=sys.stderr)
                    return 1
                digest = run.body_digest(body)
                entry["seeds"][str(seed)] = {"sha256": digest, "body": body}
                print(f"{workload} seed {seed}: {digest}")
            golden[workload] = entry
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
