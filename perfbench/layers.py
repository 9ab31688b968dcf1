"""The traced run: spans around the calls into each layer.

Spans are recorded from the benchmark's own files: :class:`LayerTracer`
swaps a timing wrapper in for each layer's public method while a traced
pass runs and puts the original back afterwards, so untraced passes run
the program exactly as shipped.  Spans stay in memory until the run ends
and are written out then.

A span's self time is its duration minus the durations of the spans it
directly contains.  A layer's time adds up its outermost spans only, so
a call that nests into itself (or into a sibling call of the same
layer) is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer", "PER_LAYER", "layer_metrics"]

#: Wrapped calls: span name -> (module, class, method).
TARGETS: Dict[str, Tuple[str, str, str]] = {
    "MachinePagePool.scan_all": ("repro.kernel.columnar", "MachinePagePool", "scan_all"),
    "MachinePagePool.reclaim_pairs": ("repro.kernel.columnar", "MachinePagePool", "reclaim_pairs"),
    "RunningJob.step": ("repro.cluster.job", "RunningJob", "step"),
    "Machine.touch": ("repro.kernel.machine", "Machine", "touch"),
    "Machine.tick": ("repro.kernel.machine", "Machine", "tick"),
    "Kreclaimd.run": ("repro.kernel.kreclaimd", "Kreclaimd", "run"),
    "Zswap.compress": ("repro.kernel.zswap", "Zswap", "compress"),
    "Zswap.decompress": ("repro.kernel.zswap", "Zswap", "decompress"),
    "Cluster.tick": ("repro.cluster.cluster", "Cluster", "tick"),
    "NodeAgent.maybe_control": ("repro.agent.node_agent", "NodeAgent", "maybe_control"),
    "TelemetryExporter.maybe_export": ("repro.agent.telemetry", "TelemetryExporter", "maybe_export"),
    "ColumnarTraceDatabase.add_block": ("repro.tracestore.database", "ColumnarTraceDatabase", "add_block"),
    "ColumnarTraceDatabase.add_batch": ("repro.tracestore.database", "ColumnarTraceDatabase", "add_batch"),
    "ColumnarTraceDatabase.add": ("repro.tracestore.database", "ColumnarTraceDatabase", "add"),
    "TraceStore.flush": ("repro.tracestore.store", "TraceStore", "flush"),
    "TraceStore.compact": ("repro.tracestore.store", "TraceStore", "compact"),
    "TraceStore.compiled_traces": ("repro.tracestore.store", "TraceStore", "compiled_traces"),
    "FarMemoryModel.evaluate_many": ("repro.model.replay", "FarMemoryModel", "evaluate_many"),
    "GpBandit.suggest": ("repro.autotuner.gp_bandit", "GpBandit", "suggest"),
    "FleetController.canary": ("repro.autotuner.controller", "FleetController", "canary"),
}


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(value) -> int:
    return int(getattr(value, "size", 0))


#: Work counted at each wrapped call: span name -> fn(args, kwargs,
#: result) -> {counter: amount}.  ``args[0]`` is ``self``.
COUNTERS: Dict[str, Callable] = {
    "MachinePagePool.scan_all": lambda a, k, r: {"pages_scanned": int(r or 0)},
    "Machine.touch": lambda a, k, r: {"pages_promoted": int(r or 0)},
    "Zswap.compress": lambda a, k, r: {
        "pages_compressed": int(r or 0),
        "compress_attempted": _size(_arg(a, k, 2, "indices")),
    },
    "NodeAgent.maybe_control": lambda a, k, r: {"control_rounds": int(bool(r))},
    "ColumnarTraceDatabase.add_block": lambda a, k, r: {
        "rows_appended": int(_arg(a, k, 1, "block").n_rows)
    },
    "ColumnarTraceDatabase.add_batch": lambda a, k, r: {
        "rows_appended": len(_arg(a, k, 1, "entries"))
    },
    "ColumnarTraceDatabase.add": lambda a, k, r: {"rows_appended": 1},
    "TraceStore.compact": lambda a, k, r: {"rows_downsampled": int(r or 0)},
    "FarMemoryModel.evaluate_many": lambda a, k, r: {
        "configs_evaluated": len(_arg(a, k, 1, "configs")),
        "job_intervals": len(_arg(a, k, 1, "configs"))
        * sum(t.intervals for t in a[0].compiled_traces),
    },
    "GpBandit.suggest": lambda a, k, r: {"trials": int(_arg(a, k, 1, "n", 1))},
}


class LayerTracer:
    """Holds the spans and counts of every traced pass of one run.

    Spans are four parallel lists (name id, start, end, parent index);
    ``pass_starts`` marks where each pass's spans begin.
    """

    def __init__(self) -> None:
        self.names: List[str] = list(TARGETS)
        self.missing: List[str] = []
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self.pass_starts: List[int] = []
        self.pass_counts: List[Dict[str, int]] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[type, str, Callable]] = []

    # -- installing -----------------------------------------------------

    def _wrapper(self, name: str, original: Callable) -> Callable:
        ident = self.name_id[name]
        counter = COUNTERS.get(name)
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        stack = self._stack

        def timed(*args, **kwargs):
            index = len(starts)
            names.append(ident)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if counter is not None:
                counts = self.pass_counts[-1]
                for key, amount in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + amount
            return result

        timed.__wrapped__ = original
        return timed

    def begin_pass(self) -> None:
        """Install the wrappers and open a new pass."""
        self.pass_starts.append(len(self.span_start))
        self.pass_counts.append({})
        for name, (module, cls_name, method) in TARGETS.items():
            cls = getattr(importlib.import_module(module), cls_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                    print(f"perfbench: {name} not found; its layer reads 0",
                          file=sys.stderr)
                continue
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrapper(name, original))

    def end_pass(self) -> None:
        """Put every original method back."""
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)
        self._stack.clear()

    # -- reading --------------------------------------------------------

    def pass_range(self, index: int) -> range:
        start = self.pass_starts[index]
        end = (
            self.pass_starts[index + 1]
            if index + 1 < len(self.pass_starts) else len(self.span_start)
        )
        return range(start, end)

    def times(self, index: int) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds of outermost spans,
        and self seconds, for one pass."""
        span_range = self.pass_range(index)
        child = [0.0] * len(span_range)
        base = span_range.start
        for i in span_range:
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent - base] += self.span_end[i] - self.span_start[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            for name in self.names
        }
        for i in span_range:
            row = out[self.names[self.span_name[i]]]
            duration = self.span_end[i] - self.span_start[i]
            row["calls"] += 1
            row["self_seconds"] += duration - child[i - base]
            if not self._nested_in_same(i):
                row["seconds"] += duration
        return out

    def grouped_seconds(self, index: int, group: Tuple[str, ...]) -> float:
        """Seconds in ``group``'s calls, counting outermost spans only."""
        ids = {self.name_id[n] for n in group}
        total = 0.0
        for i in self.pass_range(index):
            if self.span_name[i] not in ids:
                continue
            parent = self.span_parent[i]
            while parent >= 0 and self.span_name[parent] not in ids:
                parent = self.span_parent[parent]
            if parent < 0:
                total += self.span_end[i] - self.span_start[i]
        return total

    def _nested_in_same(self, i: int) -> bool:
        ident = self.span_name[i]
        parent = self.span_parent[i]
        while parent >= 0:
            if self.span_name[parent] == ident:
                return True
            parent = self.span_parent[parent]
        return False

    def columns(self) -> Dict[str, object]:
        """All spans as plain lists, for writing out."""
        return {
            "names": self.names,
            "missing": self.missing,
            "pass_starts": self.pass_starts,
            "name": self.span_name,
            "start": self.span_start,
            "end": self.span_end,
            "parent": self.span_parent,
        }


#: Per-layer metric -> unit, in the order ``BENCHMARK.json`` lists them.
PER_LAYER: Dict[str, str] = {
    "kernel.scan_s": "s",
    "kernel.scans": "count",
    "kernel.pages_scanned": "count",
    "kernel.scan_ns_per_page": "ns",
    "workloads.step_self_s": "s",
    "kernel.touch_s": "s",
    "kernel.pages_promoted": "count",
    "kernel.reclaim_s": "s",
    "kernel.reclaim_calls": "count",
    "kernel.compress_s": "s",
    "kernel.pages_compressed": "count",
    "kernel.compress_accept_ratio": "ratio",
    "kernel.decompress_s": "s",
    "kernel.decompress_calls": "count",
    "kernel.machine_tick_s": "s",
    "cluster.tick_self_s": "s",
    "cluster.ticks": "count",
    "agent.control_s": "s",
    "agent.control_rounds": "count",
    "agent.export_s": "s",
    "agent.rows_exported": "count",
    "agent.rows_dropped": "count",
    "tracestore.append_s": "s",
    "tracestore.rows_appended": "count",
    "tracestore.flush_s": "s",
    "tracestore.bytes_written": "bytes",
    "tracestore.compact_s": "s",
    "tracestore.rows_downsampled": "count",
    "tracestore.compile_s": "s",
    "model.evaluate_s": "s",
    "model.configs_evaluated": "count",
    "model.job_intervals_per_s": "1/s",
    "autotuner.suggest_s": "s",
    "autotuner.trials": "count",
    "autotuner.feasible_ratio": "ratio",
    "autotuner.canary_s": "s",
    "autotuner.canary_rounds": "count",
    "bench.trace_overhead_s": "s",
    "bench.loop_unscaled_s": "s",
    "bench.host_factor": "ratio",
}


def layer_metrics(tracer: LayerTracer, index: int,
                  from_state: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of traced pass ``index``.

    ``from_state`` carries the figures read from program state after the
    pass (rows exported and dropped, bytes written, feasible ratio).
    ``bench.trace_overhead_s`` needs the untraced passes too, so the
    caller fills it in.
    """
    t = tracer.times(index)
    counts = tracer.pass_counts[index]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    scan_s = t["MachinePagePool.scan_all"]["seconds"]
    pages = counts.get("pages_scanned", 0)
    evaluate_s = t["FarMemoryModel.evaluate_many"]["seconds"]
    append = ("ColumnarTraceDatabase.add_block",
              "ColumnarTraceDatabase.add_batch", "ColumnarTraceDatabase.add")
    out = {
        "kernel.scan_s": scan_s,
        "kernel.scans": t["MachinePagePool.scan_all"]["calls"],
        "kernel.pages_scanned": pages,
        "kernel.scan_ns_per_page": ratio(scan_s * 1e9, pages),
        "workloads.step_self_s": t["RunningJob.step"]["self_seconds"],
        "kernel.touch_s": t["Machine.touch"]["seconds"],
        "kernel.pages_promoted": counts.get("pages_promoted", 0),
        "kernel.reclaim_s": tracer.grouped_seconds(
            index, ("Kreclaimd.run", "MachinePagePool.reclaim_pairs")),
        "kernel.reclaim_calls": t["Kreclaimd.run"]["calls"],
        "kernel.compress_s": t["Zswap.compress"]["seconds"],
        "kernel.pages_compressed": counts.get("pages_compressed", 0),
        "kernel.compress_accept_ratio": ratio(
            counts.get("pages_compressed", 0),
            counts.get("compress_attempted", 0)),
        "kernel.decompress_s": t["Zswap.decompress"]["seconds"],
        "kernel.decompress_calls": t["Zswap.decompress"]["calls"],
        "kernel.machine_tick_s": t["Machine.tick"]["seconds"],
        "cluster.tick_self_s": t["Cluster.tick"]["self_seconds"],
        "cluster.ticks": t["Cluster.tick"]["calls"],
        "agent.control_s": t["NodeAgent.maybe_control"]["seconds"],
        "agent.control_rounds": counts.get("control_rounds", 0),
        "agent.export_s": t["TelemetryExporter.maybe_export"]["seconds"],
        "tracestore.append_s": tracer.grouped_seconds(index, append),
        "tracestore.rows_appended": counts.get("rows_appended", 0),
        "tracestore.flush_s": t["TraceStore.flush"]["seconds"],
        "tracestore.compact_s": t["TraceStore.compact"]["seconds"],
        "tracestore.rows_downsampled": counts.get("rows_downsampled", 0),
        "tracestore.compile_s": t["TraceStore.compiled_traces"]["seconds"],
        "model.evaluate_s": evaluate_s,
        "model.configs_evaluated": counts.get("configs_evaluated", 0),
        "model.job_intervals_per_s": ratio(
            counts.get("job_intervals", 0), evaluate_s),
        "autotuner.suggest_s": t["GpBandit.suggest"]["seconds"],
        "autotuner.trials": counts.get("trials", 0),
        "autotuner.canary_s": t["FleetController.canary"]["seconds"],
        "autotuner.canary_rounds": t["FleetController.canary"]["calls"],
    }
    out.update(from_state)
    return {k: float(v) for k, v in out.items()}


def program_self_times(stats) -> Dict[str, Dict[str, float]]:
    """The program's own ``Tracer.stats()`` as plain numbers."""
    return {
        name: {"calls": s.calls, "wall_seconds": s.wall_seconds,
               "self_seconds": s.self_seconds}
        for name, s in sorted(stats.items())
    }


#: Wrapper time -> the program's own span covering the same work.
CROSS_CHECKS: Dict[str, str] = {
    "kernel.scan_s": "kstaled.scan",
    "agent.control_s": "agent.control",
    "model.evaluate_s": "model.evaluate_many",
}


def cross_check(metrics: Dict[str, float],
                program: Dict[str, Dict[str, float]]) -> Dict[str, Optional[float]]:
    """Wrapper seconds next to the program's span seconds, per pair."""
    out: Dict[str, Optional[float]] = {}
    for metric, span in CROSS_CHECKS.items():
        out[f"{metric} (wrapper)"] = metrics.get(metric)
        out[f"{span} (program)"] = program.get(span, {}).get("wall_seconds")
    return out
