"""One nilforge CLI invocation in a fresh interpreter, with its timings.

usage: child.py TIMING_FILE MODE [CLI ARGS...]

MODE is ``setup`` (stop once the CLI is ready), ``plain`` (run
`nilforge.cli.main` untraced) or ``trace`` (run it under `spans.Tracer`).
The CLI is ready once `nilforge.cli` is imported and the two built-in bases
are built, which includes the series-oracle check of their rules.  The
report goes to stdout as usual; the timings go to TIMING_FILE as JSON.

While the child runs, a `SpeedProbe` thread times a fixed unit of work every
PROBE_EVERY_S seconds.  It runs on the same processor, in the same moments,
as the measured code, so the mean time of its units tells how fast the
shared machine was running this process during set-up and during the
campaign (`setup_unit_s`, `wall_unit_s`).
"""

from __future__ import annotations

import json
import sys
import threading
import time

PROBE_EVERY_S = 0.02    # one probe unit per interval: about 1.5% of the time
PROBE_SIZE = 2000       # loop iterations of one probe unit, about 0.3 ms


def probe_unit() -> float:
    """Seconds taken by one fixed unit of pure-Python work.

    It does what nilforge's hot loops do -- integer arithmetic, dict
    lookups and stores -- but never touches nilforge, so no change to
    nilforge can make it faster or slower; only the machine can.
    """
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(PROBE_SIZE):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


class SpeedProbe(threading.Thread):
    """Times one probe unit every PROBE_EVERY_S seconds until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._phase_start = 0
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(PROBE_EVERY_S):
            self.samples.append(probe_unit())

    def phase_mean(self) -> float:
        """Mean unit time since the last call; one unit is timed here too,
        so that a phase shorter than the interval still has a sample."""
        self.samples.append(probe_unit())
        start, self._phase_start = self._phase_start, len(self.samples)
        phase = self.samples[start:self._phase_start]
        return sum(phase) / len(phase)

    def stop(self):
        self._halt.set()
        self.join()


def main() -> int:
    timing_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    probe = SpeedProbe()
    probe.start()

    import nilforge.cli
    from nilforge.hall import builtin_basis

    t0 = time.perf_counter()
    builtin_basis("F23")
    builtin_basis("F32")
    out = {"basis_s": time.perf_counter() - t0, "ready": time.monotonic(),
           "nilforge": nilforge.cli.__file__}
    out["setup_unit_s"] = probe.phase_mean()
    rc = 0
    try:
        if mode != "setup":
            tracer = None
            if mode == "trace":
                from spans import Tracer

                tracer = Tracer()
                tracer.install()
            start = time.perf_counter()
            rc = nilforge.cli.main(argv)
            sys.stdout.flush()
            out["wall_s"] = time.perf_counter() - start
            out["wall_unit_s"] = probe.phase_mean()
            if tracer is not None:
                out["spans"] = tracer.stats
    finally:
        probe.stop()
        # Written also when the campaign raises, so that the parent counts
        # a crashed campaign as a failed run, not as a CLI that cannot start.
        with open(timing_path, "w") as fh:
            json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
