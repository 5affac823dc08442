"""nilforge benchmark: one workload run, end to end or traced per layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nilforge is imported from ./src.
Every campaign runs in a fresh interpreter (the quotient, dense-table,
series and search memos are process-global) whose working directory is a
fresh directory under ./.bench_build, so its ./.nilforge-cache never lands
in the tree.  Campaigns run back to back until S seconds of campaign time
are measured; at least one always runs.  Each report is checked against
perfbench/golden.json.  Times are reported at a nominal machine speed:
see `at_nominal_speed`.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones, from one extra campaign run under
`spans.Tracer`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = {
    "theorem-p5": ["verify-theorem", "--prime", "5"],
    "theorem-p7": ["verify-theorem", "--prime", "7", "--r", "1", "--r", "2",
                   "--r", "6"],
    "example-p7": ["verify-example", "--prime", "7", "--r", "1", "--r", "2"],
}
DEFAULT_SEED = 0

# Claims whose header seconds become per-layer metrics, summed over primes.
# p*.orders, p*.dh-cubic and p*.dh-obstruction are left out: they take
# under a millisecond and always read 0.000.
CLAIM_SUFFIXES = ("consistency", "structure", "maximal", "pairwise-isomorphic",
                  "psi-congruences", "power-lemma", "orbit-grid",
                  "dh-structure", "dh-scaling", "dh-aut", "dh-orbit-grid",
                  "dh-central-corrections")

SETUP_PROBES = 5        # set-up-only interpreters timed before each campaign
                        # of an untraced run and after its last
PROBE_NOMINAL_S = 300e-6  # child.probe_unit() at the nominal machine speed
RUN_CAP_S = 150         # start no further campaign after this much of a run
KILL_AFTER_S = 170      # a child still running then is killed and fails
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class HarnessError(Exception):
    """The benchmark cannot measure: bad arguments, no source tree, or a
    child that cannot even start the CLI."""


@dataclass
class Child:
    rc: int
    stdout: str
    stderr: str
    timing: dict | None
    elapsed_s: float
    rss_mb: float
    cpu_s: float
    setup_s: float | None


def child_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("NILFORGE_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(mode: str, argv: list[str], parent: Path, kill_at: float) -> Child:
    """Run child.py in a fresh interpreter and a fresh working directory."""
    workdir = Path(tempfile.mkdtemp(dir=parent))
    timing_path = workdir / "timing.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(timing_path), mode, *argv]
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(workdir),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killed = False
        try:
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not killed and time.monotonic() > kill_at:
                    os.kill(proc.pid, signal.SIGKILL)
                    killed = True
                time.sleep(0.01)
        except BaseException:
            # Interrupted or terminated: take the child down too.
            proc.kill()
            proc.wait()
            raise
        elapsed = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timing = json.loads(timing_path.read_text()) if timing_path.exists() else None
    child = Child(proc.returncode, (workdir / "stdout").read_text(),
                  (workdir / "stderr").read_text(), timing, elapsed,
                  ru.ru_maxrss / 1024, ru.ru_utime + ru.ru_stime,
                  timing["ready"] - t0 if timing else None)
    if timing and not Path(timing["nilforge"]).resolve().is_relative_to(SRC):
        raise HarnessError(f"nilforge was imported from {timing['nilforge']}, "
                           f"not from {SRC}")
    shutil.rmtree(workdir)
    return child


def at_nominal_speed(seconds: float, unit_s: float) -> float:
    """`seconds` measured while the child's probe units took `unit_s` on
    average, rescaled to the nominal speed at which they take
    PROBE_NOMINAL_S.

    The shared machine runs a process up to a third slower for minutes at a
    time, invisibly to the process: no steal, no other load.  The probe
    units run on the same processor in the same moments as the measured
    code, and slow down with it, so the rescaled time moves with the
    program and much less with the machine.
    """
    return seconds * PROBE_NOMINAL_S / unit_s


# -- output check -------------------------------------------------------------

def body_digest(body: dict) -> str:
    """SHA-256 of a report body serialized as the CLI serializes it."""
    blob = json.dumps(body, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(blob.encode()).hexdigest()


def verdicts(body: dict) -> dict[str, str]:
    return {c["claim_id"]: c["verdict"] for c in body["claims"]}


def check_report(golden: dict, seed: int, rc: int, stdout: str) -> list[str]:
    """Reasons a campaign run failed; empty when it passed.

    A run fails on a nonzero exit, a report whose overall verdict is not
    pass, and a body whose digest differs from the golden one for its seed.
    On a seed without a golden body, every claim verdict must match the
    default seed's golden body, and no claim may be missing or added.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        body = json.loads(stdout)["body"]
        got = verdicts(body)
    except (ValueError, KeyError, TypeError) as ex:
        return problems + [f"no readable report on stdout ({ex!r})"]
    if body.get("overall") != "pass":
        problems.append(f"overall is {body.get('overall')!r}")
    if body.get("config", {}).get("seed") != seed:
        problems.append("report does not echo the seed")
    gold = golden["seeds"].get(str(seed))
    if gold is not None:
        if body_digest(body) != gold["sha256"]:
            problems.append("body digest differs from the golden body")
    else:
        want = verdicts(golden["seeds"][str(DEFAULT_SEED)]["body"])
        for claim in sorted(set(want) | set(got)):
            if want.get(claim) != got.get(claim):
                problems.append(f"{claim}: verdict {got.get(claim)!r}, "
                                f"golden {want.get(claim)!r}")
    return problems


def load_golden(workload: str) -> dict:
    try:
        golden = json.loads(GOLDEN.read_text())[workload]
    except (OSError, ValueError, KeyError) as ex:
        raise HarnessError(f"no golden reports for {workload}: {ex!r}")
    if golden["argv"] != WORKLOADS[workload]:
        raise HarnessError(f"golden reports for {workload} were recorded for "
                           f"{golden['argv']}, not {WORKLOADS[workload]}")
    return golden


# -- runs -------------------------------------------------------------------------

@dataclass
class Campaign:
    child: Child
    problems: list[str]

    @property
    def wall_s(self) -> float:
        """Timed inside the child; the process lifetime if it died first."""
        timing = self.child.timing or {}
        return timing.get("wall_s", self.child.elapsed_s)

    @property
    def unit_s(self) -> float:
        """Mean probe unit during the campaign; nominal if it died first."""
        timing = self.child.timing or {}
        return timing.get("wall_unit_s", PROBE_NOMINAL_S)

    @property
    def nominal_wall_s(self) -> float:
        return at_nominal_speed(self.wall_s, self.unit_s)


def setup_probes(parent: Path, started: float) -> list[Child]:
    """SETUP_PROBES set-up-only interpreters, one after another."""
    probes = [spawn("setup", [], parent, started + KILL_AFTER_S)
              for _ in range(SETUP_PROBES)]
    bad = next((p for p in probes if p.rc != 0 or p.setup_s is None), None)
    if bad is not None:
        raise HarnessError(f"the CLI does not start: {bad.stderr.strip()[-2000:]}")
    return probes


def run_campaigns(workload: str, seed: int, seconds: float, parent: Path,
                  golden: dict, started: float,
                  probes: list[Child] | None = None) -> list[Campaign]:
    """Untraced campaigns, back to back, until `seconds` of campaign time.

    When `probes` is given, set-up probes are appended to it before every
    campaign and after the last, so that set-up time is sampled across the
    whole run, as the campaigns are.
    """
    argv = WORKLOADS[workload] + ["--seed", str(seed)]
    out: list[Campaign] = []
    measured = 0.0
    while not out or (measured < seconds and time.monotonic() - started
                      + out[-1].child.elapsed_s < RUN_CAP_S):
        if probes is not None:
            probes += setup_probes(parent, started)
        child = spawn("plain", argv, parent, started + KILL_AFTER_S)
        out.append(Campaign(child, check_report(golden, seed, child.rc, child.stdout)))
        measured += out[-1].wall_s
    if probes is not None:
        probes += setup_probes(parent, started)
    return out


def claim_seconds(stdout: str) -> dict[str, float]:
    """Header claim seconds summed over primes, keyed by claim suffix."""
    totals = dict.fromkeys(CLAIM_SUFFIXES, 0.0)
    try:
        header = json.loads(stdout)["header"]["claim_seconds"]
    except (ValueError, KeyError, TypeError):
        return totals
    for claim_id, secs in header.items():
        suffix = claim_id.split(".", 1)[1]
        if suffix in totals:
            totals[suffix] += secs
    return totals


def end_to_end(workload: str, seed: int, seconds: float, parent: Path,
               golden: dict, started: float):
    spawn("setup", [], parent, started + KILL_AFTER_S)  # writes bytecode caches
    probes: list[Child] = []
    runs = run_campaigns(workload, seed, seconds, parent, golden, started, probes)
    failed = sum(1 for r in runs if r.problems)
    metrics = {
        "wall_s": (statistics.median(r.nominal_wall_s for r in runs), "s"),
        "setup_s": (statistics.median(
            at_nominal_speed(p.setup_s, p.timing["setup_unit_s"])
            for p in probes), "s"),
        "peak_rss_mb": (statistics.median(r.child.rss_mb for r in runs), "MB"),
        "pass_rate": ((len(runs) - failed) / len(runs), "ratio"),
    }
    return runs, metrics


def per_layer(workload: str, seed: int, seconds: float, parent: Path,
              golden: dict, started: float):
    untraced = run_campaigns(workload, seed, seconds, parent, golden, started)
    argv = WORKLOADS[workload] + ["--seed", str(seed)]
    child = spawn("trace", argv, parent, started + KILL_AFTER_S)
    traced = Campaign(child, check_report(golden, seed, child.rc, child.stdout))
    runs = untraced + [traced]
    stats = child.timing.get("spans", {}) if child.timing else {}
    basis_s = [r.child.timing["basis_s"] for r in runs if r.child.timing]
    if not basis_s:
        raise HarnessError(f"the CLI does not start: {child.stderr.strip()[-2000:]}")
    metrics = spans.layer_metrics(stats)
    metrics["hall.basis_build_s"] = (statistics.median(basis_s), "s")
    claims = [claim_seconds(r.child.stdout) for r in untraced]
    for suffix in CLAIM_SUFFIXES:
        metrics[f"claim.{suffix}_s"] = (
            statistics.median(c[suffix] for c in claims), "s")
    metrics["proc.cpu_s"] = (statistics.median(r.child.cpu_s for r in untraced), "s")
    metrics["proc.wall_measured_s"] = (
        statistics.median(r.wall_s for r in untraced), "s")
    metrics["proc.probe_unit_us"] = (
        statistics.median(r.unit_s for r in untraced) * 1e6, "us")
    metrics["trace.overhead_s"] = (traced.nominal_wall_s - statistics.median(
        r.nominal_wall_s for r in untraced), "s")
    metrics["fail_rate"] = (sum(1 for r in runs if r.problems) / len(runs), "ratio")
    return runs, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind, so that the running child is killed and reaped
    # and the run's directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    try:
        if not (SRC / "nilforge" / "cli.py").is_file():
            raise HarnessError(f"no nilforge source tree at {SRC}")
        golden = load_golden(args.workload)
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        parent = Path(tempfile.mkdtemp(dir=WORK_DIR))
        try:
            measure = per_layer if args.trace else end_to_end
            runs, metrics = measure(args.workload, args.seed, args.seconds,
                                    parent, golden, started)
        finally:
            shutil.rmtree(parent, ignore_errors=True)
    except HarnessError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    failed = 0
    for i, campaign in enumerate(runs):
        if campaign.problems:
            failed += 1
            print(f"perfbench: campaign {i} failed: {'; '.join(campaign.problems)}"
                  f"\n{campaign.child.stderr.strip()[-2000:]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
