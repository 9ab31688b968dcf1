"""Benchmark the paper's loop end to end, or layer by layer when traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_large_jobs --seed 1 \\
        --seconds 38 --trace 0

Workloads: ``fleet_large_jobs``, ``fleet_dense_jobs``, ``week_replay``
(see ``perfbench/workloads.py`` for what each exercises and why).

A run warms up on the fast mode's tiny inputs, then repeats passes of
the workload (set up, loop, check) until the next pass would overrun
``--seconds`` (but runs every input at least once), and reports medians
over them.  Passes cycle through :data:`INPUTS_PER_RUN` inputs drawn
from ``--seed``, because the GP-Bandit's fit takes a different number
of optimizer steps on each input and each input tunes to a different
policy: a median over several inputs lets the seed move the loop's cost
and the quality metrics less.  Every input's digest is printed.
Around every pass it times a fixed reference computation
(``perfbench/calibrate.py``) and scales the pass's ``setup_s`` and
``loop_s`` to reference host speed, so that other tenants loading a
shared host do not show as a change of the program; the unscaled times
are printed and kept in the run record.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer
metrics (``perfbench/layers.py``), including the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check held.  Run records (host facts,
per-pass figures, digests, and for traced runs every span) are written
under ``.perfbench/`` in the working directory.

The process pins ``PYTHONHASHSEED=0``, because the simulator derives
per-job random streams from ``hash(job_id)``, and caps BLAS at one
thread; it re-executes itself once to set both before numpy loads.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment every measured process runs with.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Inputs a run cycles through; input ``k`` of ``--seed n`` is the
#: workload built from seed ``n * INPUTS_PER_RUN + k``.
INPUTS_PER_RUN = 3

#: Timed set-ups per pass; ``setup_s`` is the median over all of them.
SETUPS_PER_PASS = 3

#: End-to-end metric -> unit, in the order ``BENCHMARK.json`` lists them.
END_TO_END = {
    "loop_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "tuned_cold_pages": "pages",
    "tuned_p98_pct_per_min": "%/min",
    "coverage": "ratio",
    "promotion_p98_pct_per_min": "%/min",
}


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> Dict[str, object]:
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _fresh(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    gc.collect()


def run_pass(workload, workdir: Path, tracer=None) -> Dict[str, object]:
    """One pass: set up :data:`SETUPS_PER_PASS` times (each timed, only
    the last one kept and traced), loop (timed), then check (untimed).

    ``setup_s`` is the median of the pass's set-up times: a set-up takes
    a fraction of a second, so one timing of it is as noisy as the host.
    """
    record: Dict[str, object] = {"traced": tracer is not None, "error": None}
    setups: List[float] = []
    try:
        for _ in range(SETUPS_PER_PASS - 1):
            _fresh(workdir)
            start = perf_counter()
            workload.setup(workdir)
            setups.append(perf_counter() - start)
    except Exception:  # set-up raised: report it, keep going
        record["error"] = traceback.format_exc()
        setups.append(perf_counter() - start)
        record.update(setup_s=_median(setups), loop_s=0.0, outcome=None)
        return record
    _fresh(workdir)
    state = None
    if tracer is not None:
        tracer.begin_pass()
    try:
        start = perf_counter()
        setup_end = None
        try:
            state = workload.setup(workdir)
            setup_end = perf_counter()
            workload.loop(state)
        except Exception:  # a loop step raised: report it, keep going
            record["error"] = traceback.format_exc()
        end = perf_counter()
        if setup_end is None:
            setup_end = end
    finally:
        if tracer is not None:
            tracer.end_pass()
    setups.append(setup_end - start)
    record["setup_s"] = _median(setups)
    record["loop_s"] = end - setup_end
    if state is None:
        record["outcome"] = None
        return record
    record["outcome"] = workload.finish(state)
    record["program_spans"] = state["tracer"].stats()
    return record


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _scaled(passes: List[Dict[str, object]], key: str) -> float:
    """Median of ``key`` over ``passes``, each scaled to reference speed."""
    return _median([p[key] / p["host_factor"] for p in passes])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from layers import (
        PER_LAYER, LayerTracer, cross_check, layer_metrics, program_self_times,
    )
    from workloads import WORKLOADS
    from calibrate import REFERENCE_S, host_seconds

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2

    facts = host_facts()
    print("host " + json.dumps(facts, sort_keys=True))
    out_dir = ROOT / ".perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        + ("-fast" if args.fast else "")
    )
    workdir = out_dir / "work"
    inputs = [
        WORKLOADS[args.workload](args.seed * INPUTS_PER_RUN + k, fast=args.fast)
        for k in range(INPUTS_PER_RUN)
    ]
    tracer = LayerTracer() if args.trace else None

    started = perf_counter()
    # Untimed warm-up on the fast mode's tiny inputs, so that lazy imports
    # and first-call set-up in the program and its libraries are done
    # before the first timed pass.
    run_pass(WORKLOADS[args.workload](args.seed, fast=True), workdir)
    passes: List[Dict[str, object]] = []
    reference = [host_seconds()]
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        pass_start = perf_counter()
        index = len(passes) % INPUTS_PER_RUN
        record = run_pass(inputs[index], workdir, tracer if traced else None)
        record["input"] = index
        reference.append(host_seconds())
        record["wall_s"] = perf_counter() - pass_start
        # Host slowness while the pass ran: the reference computation's
        # mean time just before and just after it, over its nominal time.
        record["host_factor"] = (reference[-2] + reference[-1]) / (2 * REFERENCE_S)
        passes.append(record)
        done = len(passes) >= INPUTS_PER_RUN
        longest = max(p["wall_s"] for p in passes)
        if done and perf_counter() - started + longest > args.seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    digests: Dict[int, set] = {k: set() for k in range(INPUTS_PER_RUN)}
    check_lines = []
    for index, record in enumerate(passes):
        outcome = record["outcome"]
        if record["error"]:
            print(f"pass {index}: loop step raised:\n{record['error']}",
                  file=sys.stderr)
        if outcome is None:
            attempted += 1
            failed += 1
            continue
        attempted += outcome.steps + len(outcome.checks) + outcome.rows_exported
        failed += (1 if record["error"] else 0) + outcome.rows_lost
        for name, ok, detail in outcome.checks:
            if not ok:
                failed += 1
                check_lines.append(f"pass {index}: FAILED {name}: {detail}")
        digests[record["input"]].add(outcome.digest)
    for index, seen in digests.items():
        if not seen:
            continue
        attempted += 1
        if len(seen) != 1:
            failed += 1
            check_lines.append(
                f"input {index}: digests differ across passes: {sorted(seen)}")
    for line in check_lines:
        print("check " + line, file=sys.stderr)
    # Each input's quality metrics, from its last pass (they are the
    # same on every pass of an input, as the digest check shows).
    quality_by_input = {p["input"]: p["outcome"].quality
                        for p in passes if p["outcome"] is not None}
    digest = {k: next(iter(seen)) if len(seen) == 1 else "mismatch"
              for k, seen in digests.items() if seen}
    for index, value in digest.items():
        print(f"digest {args.workload} seed={args.seed} input={index}: {value}")
    print(f"passes {len(passes)}; error_rate {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    run_record: Dict[str, object] = {
        "workload": args.workload,
        "why": inputs[0].why,
        "seed": args.seed,
        "trace": args.trace,
        "host": facts,
        "digest": digest,
        "reference_s": reference,
        "passes": [
            {"traced": p["traced"], "input": p["input"], "setup_s": p["setup_s"],
             "loop_s": p["loop_s"], "host_factor": p["host_factor"],
             "error": p["error"]}
            for p in passes
        ],
    }
    print(f"unscaled: loop_s {_median([p['loop_s'] for p in untraced]):.6g} s, "
          f"setup_s {_median([p['setup_s'] for p in untraced]):.6g} s; "
          f"host factor {_median([p['host_factor'] for p in passes]):.4g}")
    if args.trace == 0:
        metrics = {
            "loop_s": _scaled(untraced, "loop_s"),
            "setup_s": _scaled(untraced, "setup_s"),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{name: _median([q.get(name, 0.0)
                              for q in quality_by_input.values()])
               for name in ("tuned_cold_pages", "tuned_p98_pct_per_min",
                            "coverage", "promotion_p98_pct_per_min")},
        }
        units = END_TO_END
    else:
        per_pass = []
        program = []
        trace_index = 0
        for record in passes:
            if not record["traced"]:
                continue
            outcome = record["outcome"]
            per_pass.append(layer_metrics(
                tracer, trace_index,
                outcome.layer if outcome is not None else {}))
            program.append(program_self_times(record.get("program_spans", {})))
            trace_index += 1
        metrics = {
            name: _median([m.get(name, 0.0) for m in per_pass])
            for name in PER_LAYER if not name.startswith("bench.")
        }
        metrics["bench.trace_overhead_s"] = (
            _scaled(traced_passes, "loop_s") - _scaled(untraced, "loop_s")
        )
        metrics["bench.loop_unscaled_s"] = _median(
            [p["loop_s"] for p in untraced])
        metrics["bench.host_factor"] = _median(
            [p["host_factor"] for p in passes])
        units = PER_LAYER
        for key, value in cross_check(metrics, program[-1]).items():
            print(f"cross-check {key}: {value}")
        run_record["per_layer_by_pass"] = per_pass
        run_record["program_spans_by_pass"] = program
        out_dir.mkdir(parents=True, exist_ok=True)
        with gzip.open(out_dir / "spans.json.gz", "wt") as fh:
            json.dump(tracer.columns(), fh)

    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    run_record["metrics"] = metrics
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(
        json.dumps(run_record, indent=1, sort_keys=True, default=str))

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _pin_environment() -> None:
    """Re-execute with :data:`PINNED_ENV` unless it is already set."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


if __name__ == "__main__":
    _pin_environment()
    sys.exit(main())
