"""Span tracer for the benchmark's traced run, installed from outside the program.

``Tracer.install`` wraps every public function of the seven cyclosrg modules
in every namespace that holds it, so a name imported with ``from .x import y``
(``family_search.build_field``, ``cli.scan_pairs``, the package's re-exports)
is wrapped as well as the original.  It also wraps the public ``ClassMap`` and
``FieldTable`` methods the workloads reach, and counts ``CyclotomicInteger``
constructions.  The program's source is not touched.

Each span is (name, start, end, parent) and is kept in memory in one flat
int64 array, written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

LAYERS = ("ntheory", "finite_field", "cyclotomy", "gauss_theory", "srg_engine", "family_search", "cli")

# Public methods the workloads reach, wrapped besides the module-level functions.
METHODS = {
    "finite_field": {"FieldTable": ("sub_vec",)},
    "cyclotomy": {"ClassMap": ("tally", "periods", "is_symmetric", "connection_sums", "connection_set_elements")},
}


def _tally_is_cold(cm) -> bool:
    # only the access that computes the table is a span; if the cache slot
    # is ever renamed, every access is recorded instead
    return getattr(cm, "_tally", None) is None


# Work counts taken at the span boundary from arguments and results.


def _count_field(args, kwargs, fld, counters):
    counters["finite_field.elements"] += fld.q
    counters["finite_field.table_bytes"] += fld.antilog.nbytes + fld.log.nbytes + fld.trace.nbytes


def _count_tally(args, kwargs, tally, counters):
    counters["cyclotomy.tally_cells"] += int(tally.size)


def _count_oracle_pairs(args, kwargs, cert, counters):
    cm = args[0]
    D = args[1] if len(args) > 1 else kwargs["D"]
    counters["srg_engine.oracle.pairs"] += (cm.class_size * len(set(D))) ** 2


def _count_candidates(args, kwargs, report, counters):
    counters["family_search.candidates"] += len(report.hits) + len(report.rejections)


HOOKS = {
    "finite_field.build_field": _count_field,
    "cyclotomy.ClassMap.tally": _count_tally,
    "srg_engine.difference_count_oracle": _count_oracle_pairs,
    "family_search.scan_pairs": _count_candidates,
    "family_search.scan_triples": _count_candidates,
}


class Tracer:
    """Spans and counts of the traced passes; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buf = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @property
    def span_count(self) -> int:
        return len(self.buf) // 4

    def _open(self, name: str) -> int:
        i = len(self.buf) // 4
        self.buf.extend((self._id(name), 0, 0, self._stack[-1]))
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.buf[4 * i + 1] = t0
        self.buf[4 * i + 2] = t1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code; a no-op when inactive."""
        if not self.active:
            yield
            return
        i = self._open(name)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(i, t0, time.perf_counter_ns())

    def _wrap(self, name: str, fn, record_if=None):
        # the hot path of the traced run: keep it to a few local operations
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns
        nid = self._id(name)
        buf = self.buf
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (record_if is not None and not record_if(args[0])):
                return fn(*args, **kwargs)
            i = len(buf) >> 2
            buf.extend((nid, 0, 0, stack[-1]))
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf[4 * i + 1] = t0
                buf[4 * i + 2] = t1
            if hook is not None:
                hook(args, kwargs, result, tracer.counters)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules) -> None:
        """Wrap the program; ``modules`` are all imported modules of the package."""
        by_short = {m.__name__.rpartition(".")[2]: m for m in modules}
        wrapped: dict[int, tuple[object, object]] = {}
        for short in LAYERS:
            mod = by_short[short]
            for name, obj in vars(mod).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patch(mod, name, wrapped[id(obj)][1])
        for short, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(by_short[short], cls_name)
                for attr in methods:
                    raw = cls.__dict__[attr]
                    name = f"{short}.{cls_name}.{attr}"
                    if isinstance(raw, property):
                        record_if = _tally_is_cold if attr == "tally" else None
                        new = property(self._wrap(name, raw.fget, record_if), raw.fset, raw.fdel, raw.__doc__)
                    else:
                        new = self._wrap(name, raw)
                    self._patch(cls, attr, new)
        ci = by_short["cyclotomy"].CyclotomicInteger
        init = ci.__dict__["__init__"]
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            if tracer.active:
                tracer.counters["cyclotomy.cyclotomic_integers"] += 1
            init(obj, *args, **kwargs)

        self._patch(ci, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self, start: int, end: int) -> dict[str, tuple[float, int]]:
        """{span name: (self seconds, calls)} over spans [start, end)."""
        import numpy as np

        spans = np.frombuffer(self.buf[4 * start : 4 * end], dtype=np.int64).reshape(-1, 4)
        if not len(spans):
            return {}
        names, t0, t1, parent = spans.T
        dur = t1 - t0
        inner = parent >= 0
        covered = np.bincount(parent[inner] - start, weights=dur[inner], minlength=len(spans))
        own = dur - covered
        self_ns = np.bincount(names, weights=own, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {
            name: (float(self_ns[i]) / 1e9, int(calls[i])) for i, name in enumerate(self.names) if calls[i]
        }

    def write(self, path) -> None:
        import numpy as np

        spans = np.frombuffer(self.buf, dtype=np.int64).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(self.names), spans=spans, columns=np.array(["name", "start_ns", "end_ns", "parent"]))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

SELF_TIME = {
    "finite_field.build_field.s": ("finite_field.build_field",),
    "cyclotomy.classify.s": ("cyclotomy.classify",),
    "cyclotomy.tally.s": ("cyclotomy.ClassMap.tally",),
    "cyclotomy.connection_sums.s": ("cyclotomy.ClassMap.connection_sums",),
    "cyclotomy.periods.s": ("cyclotomy.ClassMap.periods",),
    "cyclotomy.sum_periods.s": ("cyclotomy.sum_periods",),
    "srg_engine.oracle.s": ("srg_engine.difference_count_oracle",),
    "srg_engine.srg_from_spectrum.s": ("srg_engine.srg_from_spectrum",),
    "srg_engine.predicted_spectrum.s": (
        "srg_engine.predicted_spectrum_prime_power",
        "srg_engine.predicted_spectrum_two_primes",
    ),
    "srg_engine.family_check.s": ("srg_engine.pair_family_check", "srg_engine.triple_family_check"),
    "gauss_theory.index2_gauss.s": (
        "gauss_theory.index2_gauss_prime_power",
        "gauss_theory.index2_gauss_two_primes",
    ),
    "gauss_theory.class_number.s": ("gauss_theory.class_number",),
    "ntheory.primes_upto.s": ("ntheory.primes_upto",),
    "family_search.verify_named_example.s": ("family_search.verify_named_example",),
    "family_search.scan_pairs.s": ("family_search.scan_pairs",),
    "family_search.scan_triples.s": ("family_search.scan_triples",),
    "cli.main.s": ("cli.main",),
}
CALLS = {
    "finite_field.build_field.calls": "finite_field.build_field",
    "srg_engine.oracle.calls": "srg_engine.difference_count_oracle",
    "ntheory.primes_upto.calls": "ntheory.primes_upto",
    "ntheory.factorize.calls": "ntheory.factorize",
}
COUNTS = (
    "finite_field.elements",
    "finite_field.table_bytes",
    "cyclotomy.cyclotomic_integers",
    "cyclotomy.tally_cells",
    "srg_engine.oracle.pairs",
    "family_search.candidates",
    "cli.stdout_bytes",
)
HIT_RATIOS = {
    "gauss_theory.class_number.hit_frac": "gauss_theory.class_number",
    "gauss_theory.mult_order.hit_frac": "gauss_theory.mult_order",
}
UNITS = {".s": "s", "_s": "s", "_frac": "ratio", ".share": "ratio", "_bytes": "bytes"}


def metric_unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


PER_LAYER = (
    tuple(f"{layer}.{kind}" for layer in LAYERS for kind in ("s", "share"))
    + tuple(SELF_TIME)
    + tuple(CALLS)
    + COUNTS
    + ("srg_engine.oracle.agree_frac",)
    + tuple(HIT_RATIOS)
    + ("trace.overhead_s", "trace.overhead_frac", "trace.spans")
)


def layer_metrics(times: dict, counts: Counter, caches: dict) -> dict[str, float]:
    """Per-layer metrics of one pass from its self times, counts and cache use.

    trace.* metrics compare traced with untraced passes and are added by the
    caller.
    """
    out: dict[str, float] = {}
    module_s = {layer: sum(s for name, (s, _) in times.items() if name.startswith(layer + ".")) for layer in LAYERS}
    total = sum(module_s.values()) or 1.0
    for layer in LAYERS:
        out[f"{layer}.s"] = module_s[layer]
        out[f"{layer}.share"] = module_s[layer] / total
    for metric, names in SELF_TIME.items():
        out[metric] = sum(times.get(name, (0.0, 0))[0] for name in names)
    for metric, name in CALLS.items():
        out[metric] = times.get(name, (0.0, 0))[1]
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0)
    oracle_ops = counts.get("oracle.ops", 0)
    out["srg_engine.oracle.agree_frac"] = counts.get("oracle.agree", 0) / oracle_ops if oracle_ops else 0.0
    for metric, cache in HIT_RATIOS.items():
        hits, misses = caches.get(cache, (0, 0))
        out[metric] = hits / (hits + misses) if hits + misses else 0.0
    return out
