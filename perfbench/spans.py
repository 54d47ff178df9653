"""Span recorder and per-layer metrics for the traced benchmark run.

The recorder wraps wishmom's public functions from outside the package.
``wishart``, ``cli``, ``validate`` and ``hafnian`` bind names from
``weingarten`` and ``matchgroup`` at import time, so every loaded ``wishmom``
module is scanned and each binding of a wrapped function is replaced; the
originals are put back by ``uninstall``.  A span is (name, start, end,
parent span, thread, phase, attributes); spans stay in memory until the run
ends.  A span opened on a worker thread with no open span of its own takes
the innermost open span of the thread that installed the recorder as its
parent, so the draws inside ``estimate``'s thread pool belong to that call.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("wishart.moment.calls", "count", "lower"),
    ("wishart.moment.self_ms", "ms", "lower"),
    ("wishart.inverse_moment.calls", "count", "lower"),
    ("wishart.inverse_moment.self_ms", "ms", "lower"),
    ("matchgroup.iter_matchings_with_type.items", "count", "lower"),
    ("matchgroup.matchings_with_type.ms", "ms", "lower"),
    ("matchgroup.hyperoctahedral.ms", "ms", "lower"),
    ("wishart.power_trace_moment.self_ms", "ms", "lower"),
    ("wishart.trace_power_moment.self_ms", "ms", "lower"),
    ("wishart.invariant_moment.self_ms", "ms", "lower"),
    ("wishart.haar_moment.self_ms", "ms", "lower"),
    ("wishart.mixed_trace_moment.self_ms", "ms", "lower"),
    ("weingarten.weingarten.calls", "count", "lower"),
    ("weingarten.weingarten.self_ms", "ms", "lower"),
    ("weingarten.weingarten_truncated.self_ms", "ms", "lower"),
    ("weingarten.zonal_spherical.hits", "count", "higher"),
    ("weingarten.zonal_spherical.misses", "count", "lower"),
    ("weingarten.zonal_spherical.miss_ms", "ms", "lower"),
    ("wishart.inv_wg_table.hits", "count", "higher"),
    ("wishart.inv_wg_table.misses", "count", "lower"),
    ("symcomb.character.misses", "count", "lower"),
    ("weingarten.table_io.ms", "ms", "lower"),
    ("weingarten.table_io.bytes", "bytes", "lower"),
    ("hafnian.self_ms", "ms", "lower"),
    ("validate.golden_suite.ms", "ms", "lower"),
    ("validate.identities_suite.ms", "ms", "lower"),
    ("montecarlo.estimate.ms", "ms", "lower"),
    ("montecarlo.estimate_haar.ms", "ms", "lower"),
    ("montecarlo.targets_ms", "ms", "lower"),
    ("montecarlo.rng_ms", "ms", "lower"),
    *(
        (f"kernels.{k}.{m}", unit, better)
        for k in ("bartlett_gram", "vectors_gram", "inverse_and_cond", "haar_orthogonalize")
        for m, unit, better in (
            ("ms", "ms", "lower"),
            ("samples", "count", "higher"),
            ("flops_per_sample", "flop", "lower"),
            ("bytes_per_sample", "bytes", "lower"),
        )
    ),
    ("montecarlo.descriptor_values.ms", "ms", "lower"),
    ("montecarlo.accumulate_ms", "ms", "lower"),
    ("montecarlo.rejected_frac", "ratio", "lower"),
    ("montecarlo.samples_per_s.threads1", "1/s", "higher"),
    ("montecarlo.samples_per_s.threads2", "1/s", "higher"),
    ("montecarlo.thread_idle_frac", "ratio", "lower"),
    ("exact.repeated_point_frac", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# functools caches whose cache_info() is read: metric prefix -> (module, attribute)
CACHES = {
    "weingarten.zonal_spherical": ("wishmom.weingarten", "zonal_spherical"),
    "wishart.inv_wg_table": ("wishmom.wishart", "_inv_wg_table"),
    "symcomb.character": ("wishmom.symcomb", "character"),
}

# Plain spans: (module, function).  The span is named "<module>.<function>".
SPANNED = [
    ("wishart", f)
    for f in ("moment", "inverse_moment", "power_trace_moment", "trace_power_moment",
              "invariant_moment", "haar_moment", "mixed_trace_moment")
] + [
    ("weingarten", "weingarten"),
    ("weingarten", "weingarten_truncated"),
    ("weingarten", "inv_wishart_weingarten"),
    ("matchgroup", "matchings_with_type"),
    ("matchgroup", "hyperoctahedral"),
    ("montecarlo", "sample_wishart_batch"),
    ("montecarlo", "sample_haar_batch"),
    ("hafnian", "hafnian_matching"),
    ("hafnian", "hafnian_expand"),
    ("hafnian", "hafnian_permsum"),
    ("hafnian", "alpha_permanent"),
    ("validate", "golden_suite"),
    ("validate", "identities_suite"),
    ("validate", "montecarlo_suite"),
    ("cli", "main"),
]
DESCRIPTORS = ("EntryProduct", "TracePower", "PowerTrace", "TraceProduct")


def _kernel_cost(name: str, args):
    """(samples, flops, bytes) of one kernel call, computed from array shapes.

    Flops are nominal counts (a multiply-add is two flops; LAPACK routines at
    their textbook leading-order cost); bytes are float64 inputs plus outputs.
    """
    if name == "bartlett_gram":
        m, d = args[1].shape
        return m, m * 4 * d**3, 8 * m * (d + d * (d - 1) // 2 + d * d)
    if name == "vectors_gram":
        m, d, p = args[1].shape
        return m, m * 4 * d * d * p, 8 * m * (d * p + d * d)
    if name == "inverse_and_cond":
        m, d, _ = args[0].shape
        return m, m * (4 * d**3 / 3 + 2 * d**3), 8 * m * (2 * d * d + 1)
    m, n, _ = args[0].shape  # haar_orthogonalize
    return m, m * 8 * n**3 / 3, 8 * m * 2 * n * n


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "setup"
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------ recording

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, tid, self.phase, {}])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.spans[idx][6], args, kwargs, out)
            return out

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                self.add("matchgroup.iter_matchings_with_type.items", items)

        return wrapper

    def _miss_timer(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            before = fn.cache_info().misses
            t0 = time.perf_counter()
            out = fn(*args)
            if fn.cache_info().misses != before:
                self.add("weingarten.zonal_spherical.miss_ms", (time.perf_counter() - t0) * 1e3)
            return out

        wrapper.cache_info = fn.cache_info
        wrapper.cache_clear = fn.cache_clear
        return wrapper

    # --------------------------------------------------------------- hooks

    def _kernel_hook(self, name: str):
        def after(attrs, args, kwargs, out):
            samples, flops, nbytes = _kernel_cost(name, args)
            self.add(f"kernels.{name}.samples", samples)
            self.add(f"kernels.{name}.flops", flops)
            self.add(f"kernels.{name}.bytes", nbytes)

        return after

    def _table_hook(self, save: bool):
        from wishmom import weingarten

        def after(attrs, args, kwargs, out):
            path = out if save else weingarten.table_path(*args[:3])
            if path is not None and path.exists():
                self.add("weingarten.table_io.bytes", path.stat().st_size)

        return after

    @staticmethod
    def _estimate_hook(attrs, args, kwargs, out):
        attrs["threads"] = kwargs.get("threads", 1)
        attrs["samples"] = args[2]
        # rejected draws are counted once per descriptor that needs W^-1
        attrs["rejected"] = max((s.rejected for s in out), default=0)

    # ------------------------------------------------------------- patching

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items()) if name == "wishmom" or name.startswith("wishmom.")]

    def _patch_everywhere(self, orig, new) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def install(self, phase: str) -> None:
        """Wrap the public functions at every import site and start a phase."""
        from wishmom import _kernels, hafnian, matchgroup, montecarlo, validate, weingarten, wishart  # noqa: F401
        import wishmom.cli  # noqa: F401

        self.phase = phase
        self._main = threading.get_ident()
        mods = {m.__name__.rsplit(".", 1)[1]: m for m in self._modules() if "." in m.__name__}
        for mod, fn in SPANNED:
            orig = getattr(mods[mod], fn)
            self._patch_everywhere(orig, self.spanned(f"{mod}.{fn}", orig))
        for fn in ("estimate", "estimate_haar"):
            orig = getattr(montecarlo, fn)
            self._patch_everywhere(orig, self.spanned(f"montecarlo.{fn}", orig, self._estimate_hook))
        for fn in ("bartlett_gram", "vectors_gram", "inverse_and_cond", "haar_orthogonalize"):
            orig = getattr(_kernels, fn)
            self._patch_everywhere(orig, self.spanned(f"kernels.{fn}", orig, self._kernel_hook(fn)))
        for fn, save in (("save_table", True), ("load_table", False)):
            orig = getattr(weingarten, fn)
            self._patch_everywhere(orig, self.spanned("weingarten.table_io", orig, self._table_hook(save)))
        orig = matchgroup.iter_matchings_with_type
        self._patch_everywhere(orig, self._counting(orig))
        orig = weingarten.zonal_spherical
        self._patch_everywhere(orig, self._miss_timer(orig))
        for cls in DESCRIPTORS:
            klass = getattr(montecarlo, cls)
            for meth, name in (("values", "montecarlo.descriptor_values"), ("target", "montecarlo.target")):
                orig = vars(klass)[meth]
                self._patches.append((klass, meth, orig))
                setattr(klass, meth, self.spanned(name, orig))
        self._cache_start = self.cache_info()

    def uninstall(self) -> None:
        """Put every original function back and add the phase's cache counts."""
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()
        for prefix, (hits, misses) in self.cache_info().items():
            h0, m0 = self._cache_start[prefix]
            self.add(f"{prefix}.hits", hits - h0)
            self.add(f"{prefix}.misses", misses - m0)

    @staticmethod
    def cache_info() -> dict[str, tuple[int, int]]:
        out = {}
        for prefix, (mod, attr) in CACHES.items():
            info = getattr(sys.modules[mod], attr).cache_info()
            out[prefix] = (info.hits, info.misses)
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# ---------------------------------------------------------------- metrics


def _union(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _summaries(spans: list[list]):
    """Per span: (name, duration, self time, parent name, attrs, phase, thread, children)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (name, t0, t1, parent, tid, phase, attrs) in enumerate(spans):
        kids = [(max(spans[k][1], t0), min(spans[k][2], t1)) for k in children[i]]
        covered = _union([(a, b) for a, b in kids if b > a])
        pname = spans[parent][0] if parent is not None else None
        out.append((name, t1 - t0, t1 - t0 - covered, pname, attrs, phase, tid, [spans[k] for k in children[i]]))
    return out


def layer_metrics(dumps: list[dict], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from the span dumps of one traced run.

    ``dumps`` holds one dump per traced process; ``extra`` supplies the values
    measured outside the spans (CLI process timings, repeat share, overhead).
    """
    total = defaultdict(float)  # name -> ms
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    m = defaultdict(float)
    busy = idle_base = 0.0
    mc = {1: [0, 0.0], 2: [0, 0.0]}  # threads -> [samples, seconds]
    draws = rejected = 0.0
    for dump in dumps:
        for name, v in dump["counts"].items():
            counts[name] += v
        for name, dur, own, pname, attrs, phase, tid, kids in _summaries(dump["spans"]):
            total[name] += dur * 1e3
            self_ms[name] += own * 1e3
            calls[name] += 1
            if name == "wishart.haar_moment" and pname == "montecarlo.estimate_haar":
                m["montecarlo.targets_ms"] += dur * 1e3
            if name in ("montecarlo.estimate", "montecarlo.estimate_haar") and phase == "round":
                threads = attrs["threads"]
                mc[threads][0] += attrs["samples"]
                mc[threads][1] += dur
                draws += attrs["samples"]
                rejected += attrs["rejected"]
                if threads > 1:
                    per_thread = defaultdict(list)
                    for k in kids:
                        per_thread[k[4]].append((k[1], k[2]))
                    busy += sum(_union(iv) for t, iv in per_thread.items() if t != tid)
                    idle_base += threads * dur
    for name in ("wishart.moment", "wishart.inverse_moment"):
        m[f"{name}.calls"] = calls[name]
    for name in ("moment", "inverse_moment", "power_trace_moment", "trace_power_moment",
                 "invariant_moment", "haar_moment", "mixed_trace_moment"):
        m[f"wishart.{name}.self_ms"] = self_ms[f"wishart.{name}"]
    m["weingarten.weingarten.calls"] = calls["weingarten.weingarten"]
    m["weingarten.weingarten.self_ms"] = self_ms["weingarten.weingarten"]
    m["weingarten.weingarten_truncated.self_ms"] = self_ms["weingarten.weingarten_truncated"]
    for name in ("matchgroup.matchings_with_type", "matchgroup.hyperoctahedral", "weingarten.table_io",
                 "validate.golden_suite", "validate.identities_suite",
                 "montecarlo.estimate", "montecarlo.estimate_haar", "montecarlo.descriptor_values"):
        m[f"{name}.ms"] = total[name]
    m["hafnian.self_ms"] = sum(v for k, v in self_ms.items() if k.startswith("hafnian."))
    m["montecarlo.targets_ms"] += total["montecarlo.target"]
    m["montecarlo.rng_ms"] = self_ms["montecarlo.sample_wishart_batch"] + self_ms["montecarlo.sample_haar_batch"]
    m["montecarlo.accumulate_ms"] = self_ms["montecarlo.estimate"] + self_ms["montecarlo.estimate_haar"]
    for k in ("bartlett_gram", "vectors_gram", "inverse_and_cond", "haar_orthogonalize"):
        samples = counts[f"kernels.{k}.samples"]
        m[f"kernels.{k}.ms"] = total[f"kernels.{k}"]
        m[f"kernels.{k}.samples"] = samples
        m[f"kernels.{k}.flops_per_sample"] = counts[f"kernels.{k}.flops"] / samples if samples else 0.0
        m[f"kernels.{k}.bytes_per_sample"] = counts[f"kernels.{k}.bytes"] / samples if samples else 0.0
    for name in ("matchgroup.iter_matchings_with_type.items", "weingarten.table_io.bytes",
                 "weingarten.zonal_spherical.miss_ms"):
        m[name] = counts[name]
    for prefix in CACHES:
        m[f"{prefix}.hits"] = counts[f"{prefix}.hits"]
        m[f"{prefix}.misses"] = counts[f"{prefix}.misses"]
    m["montecarlo.rejected_frac"] = rejected / draws if draws else 0.0
    for threads, (samples, secs) in mc.items():
        m[f"montecarlo.samples_per_s.threads{threads}"] = samples / secs if secs else 0.0
    m["montecarlo.thread_idle_frac"] = 1 - busy / idle_base if idle_base else 0.0
    m["trace.spans"] = sum(len(d["spans"]) for d in dumps)
    m.update(extra)
    return {name: float(m[name]) for name, _unit, _better in PER_LAYER}
