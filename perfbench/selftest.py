"""Self-test of the benchmark harness.

usage: python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks, without running a
campaign, that the golden bodies match their digests and that the output
check fails a tampered body, a nonzero exit, a failing overall verdict, an
unreadable report and a missing claim.  Then runs perfbench/run.py once
untraced and twice traced on every workload, checks that every metric of
BENCHMARK.json is printed by name with its unit, and that the exact
counters repeat exactly between the two traced runs.  Exits nonzero on the
first failed check.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import record_golden
import run

EXACT_COUNTERS = ("quotients.reduce.calls", "lab.dense_build.bytes",
                  "lab.det_scan.candidates", "dh.lift_search.hits")


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def report(body: dict) -> str:
    return json.dumps({"header": {}, "body": body})


def check_output_check() -> None:
    golden_all = json.loads(run.GOLDEN.read_text())
    for workload, argv in run.WORKLOADS.items():
        golden = golden_all[workload]
        expect(golden["argv"] == argv, f"{workload}: golden argv is the workload's")
        expect(sorted(golden["seeds"]) == sorted(map(str, record_golden.SEEDS)),
               f"{workload}: golden bodies for seeds {record_golden.SEEDS}")
        for seed, gold in golden["seeds"].items():
            expect(run.body_digest(gold["body"]) == gold["sha256"],
                   f"{workload} seed {seed}: golden body matches its digest")
        seed = run.DEFAULT_SEED
        body = golden["seeds"][str(seed)]["body"]
        expect(run.check_report(golden, seed, 0, report(body)) == [],
               f"{workload}: the golden body passes")
        tampered = copy.deepcopy(body)
        tampered["claims"][0]["statement"] += " "
        expect(run.check_report(golden, seed, 0, report(tampered)) != [],
               f"{workload}: a tampered body fails")
        expect(run.check_report(golden, seed, 1, report(body)) != [],
               f"{workload}: a nonzero exit fails")
        failing = dict(body, overall="fail")
        expect(run.check_report(golden, seed, 0, report(failing)) != [],
               f"{workload}: overall fail fails")
        expect(run.check_report(golden, seed, 0, "Traceback ...") != [],
               f"{workload}: an unreadable report fails")
        other = 1 + max(int(s) for s in golden["seeds"])
        reseeded = copy.deepcopy(body)
        reseeded["config"]["seed"] = other
        expect(run.check_report(golden, other, 0, report(reseeded)) == [],
               f"{workload}: a seed without a golden body passes on verdicts")
        reseeded["claims"].pop()
        expect(run.check_report(golden, other, 0, report(reseeded)) != [],
               f"{workload}: a missing claim fails")


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=False)
    expect(proc.returncode == 0, f"{workload} trace {trace}: exit code 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(result["correct"] and result["failed"] == 0,
           f"{workload} trace {trace}: outputs correct")
    return result


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(printed == {m["name"]: m["unit"] for m in declared},
           f"{what}: every metric printed by name with its unit")


def main() -> int:
    check_output_check()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        check_metrics(bench(workload, 0), spec["end_to_end"], f"{workload} untraced")
        first, second = bench(workload, 1), bench(workload, 1)
        check_metrics(first, spec["per_layer"], f"{workload} traced")
        for name in EXACT_COUNTERS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            expect(a == b, f"{workload}: {name} repeats exactly ({a})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
