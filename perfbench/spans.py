"""Outside-in span tracer for nilforge, and the per-layer metrics built on it.

`Tracer.install` wraps every public function of every nilforge module in a
span, in each namespace that binds it (a name bound through
``from .x import y`` is rebound too), and wraps the two methods the layer
metrics need on their class.  Nothing inside nilforge changes: the wrappers
go into a fresh interpreter just before `nilforge.cli.main` runs.

Each span aggregates calls, inclusive seconds, self seconds (inclusive time
minus the time of the spans it called) and an optional exact work count.
Generator functions are left unwrapped, because their work happens while
the caller iterates, so it counts as the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("hall", "series", "quotients", "lab", "orbits", "dh", "cache",
           "reports", "campaigns", "cli", "wordexpr")

# Span name -> (module, class, method); methods are wrapped on their class.
METHODS = {
    "quotients.FiniteQuotient.reduce": ("quotients", "FiniteQuotient", "reduce"),
    "lab.DenseGroup.__init__": ("lab", "DenseGroup", "__init__"),
}

# Exact work counts, taken from a span's arguments and result.
WORK = {
    "lab.DenseGroup.__init__": lambda args, _res: sum(t.nbytes for t in args[0].slabs),
    "lab.isomorphism_det_scan": lambda _args, res: res.candidates_checked,
    "dh.matrix_lift_search": lambda _args, res: len(res),
}

CALLS, TOTAL_S, SELF_S, WORK_COUNT = range(4)


class Tracer:
    """Aggregated spans: name -> [calls, total_s, self_s, work]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[CALLS] += 1
                stat[TOTAL_S] += dt
                stat[SELF_S] += dt - child
                if stack:
                    stack[-1] += dt
            if work is not None:
                stat[WORK_COUNT] += work(args, result)
            return result

        return span

    def install(self) -> None:
        import nilforge

        mods = {m: importlib.import_module(f"nilforge.{m}") for m in MODULES}
        namespaces = [nilforge, *mods.values()]
        for short, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                span = self.wrap(f"{short}.{name}", fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, bound, span)
        for name, (short, cls_name, attr) in METHODS.items():
            cls = getattr(mods[short], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))


# Layer -> the spans it covers.
LAYERS = {
    "hall.arith": ("hall.collect", "hall.multiply", "hall.inverse",
                   "hall.power", "hall.commutator"),
    "quotients.make_quotient": ("quotients.make_quotient",),
    "quotients.reduce": ("quotients.FiniteQuotient.reduce",),
    "quotients.consistency_check": ("quotients.consistency_check",),
    "lab.dense_build": ("lab.DenseGroup.__init__",),
    "lab.det_scan": ("lab.isomorphism_det_scan",),
    "lab.structure": ("lab.series_invariants", "lab.maximal_subgroups",
                      "lab.subgroup_functors", "lab.is_isomorphic"),
    "orbits.psi": ("orbits.sample_psi_params", "orbits.psi_endomorphism",
                   "orbits.psi_congruence_suite", "orbits.membership_criterion",
                   "orbits.psi_transports"),
    "orbits.power_lemma": ("orbits.power_lemma_check",),
    "dh.lift_search": ("dh.matrix_lift_search",),
    "dh.characteristic": ("dh.characteristic_check",),
    "dh.central": ("dh.central_correction_invariance",),
    # cached_quotient and the disk-cache helpers it calls
    "cache.cached_quotient": ("cache.cached_quotient", "cache.cache_load",
                              "cache.cache_store", "cache.cache_key",
                              "cache.default_cache_dir"),
}


def layer_metrics(stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from aggregated span stats: name -> (value, unit)."""
    def val(layer, field):
        return sum(stats[span][field] for span in LAYERS[layer] if span in stats)

    reduce_calls = val("quotients.reduce", CALLS)
    scan_s = val("lab.det_scan", TOTAL_S)
    return {
        "hall.arith.calls": (val("hall.arith", CALLS), "count"),
        "hall.arith.self_s": (val("hall.arith", SELF_S), "s"),
        "quotients.make_quotient.self_s": (val("quotients.make_quotient", SELF_S), "s"),
        "quotients.reduce.calls": (reduce_calls, "count"),
        "quotients.reduce.self_s": (val("quotients.reduce", SELF_S), "s"),
        "quotients.reduce.us_per_call": (
            1e6 * val("quotients.reduce", SELF_S) / reduce_calls
            if reduce_calls else 0.0, "us"),
        "quotients.consistency_check.self_s": (
            val("quotients.consistency_check", SELF_S), "s"),
        "lab.dense_build.calls": (val("lab.dense_build", CALLS), "count"),
        "lab.dense_build.self_s": (val("lab.dense_build", SELF_S), "s"),
        "lab.dense_build.bytes": (val("lab.dense_build", WORK_COUNT), "B"),
        "lab.det_scan.calls": (val("lab.det_scan", CALLS), "count"),
        "lab.det_scan.self_s": (val("lab.det_scan", SELF_S), "s"),
        "lab.det_scan.candidates": (val("lab.det_scan", WORK_COUNT), "count"),
        "lab.det_scan.candidates_per_s": (
            val("lab.det_scan", WORK_COUNT) / scan_s if scan_s else 0.0, "1/s"),
        "lab.structure.self_s": (val("lab.structure", SELF_S), "s"),
        "orbits.psi.self_s": (val("orbits.psi", SELF_S), "s"),
        "orbits.power_lemma.calls": (val("orbits.power_lemma", CALLS), "count"),
        "orbits.power_lemma.self_s": (val("orbits.power_lemma", SELF_S), "s"),
        "dh.lift_search.calls": (val("dh.lift_search", CALLS), "count"),
        "dh.lift_search.self_s": (val("dh.lift_search", SELF_S), "s"),
        "dh.lift_search.hits": (val("dh.lift_search", WORK_COUNT), "count"),
        "dh.characteristic.self_s": (val("dh.characteristic", SELF_S), "s"),
        "dh.central.self_s": (val("dh.central", SELF_S), "s"),
        "cache.cached_quotient.self_s": (val("cache.cached_quotient", SELF_S), "s"),
    }
