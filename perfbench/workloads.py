"""The benchmark's workloads: the paper's loop at three input shapes.

Each workload is one pass of a batch pipeline (not a served request
stream), so it reports time at a stated input size, never a rate:

* ``setup`` builds what the loop needs (fleet, job placement, store
  open) and is timed as ``setup_s``;
* ``loop`` is the paper's loop (paper §5.2-5.3) and is timed as
  ``loop_s``;
* ``check`` and ``digest`` run after the timed loop, outside the timing.

Everything a workload feeds the program is generated from the run's
``--seed``: the fleet job mix, churn replacements and every simulator
RNG stream derive from it, and ``week_replay`` draws its synthetic week
of telemetry from it.

Every workload runs the columnar, cluster-pooled kernel through
``quickfleet`` with no engine, so the default ``WSC.run`` path is the
one measured.  The kernel options are passed only while ``quickfleet``
still accepts them; once the scalar kernel and the pool-scope option are
gone the one remaining kernel is selected by default.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.autotuner import (
    AutotuningPipeline,
    DeploymentStage,
    FleetController,
    far_memory_search_space,
)
from repro.checks.invariants import InvariantViolation, check_machine_accounting
from repro.cluster import quickfleet
from repro.common.rng import SeedSequenceFactory
from repro.common.units import DAY, HOUR, MIB, MINUTE, PAGE_SIZE
from repro.core import ThresholdPolicyConfig, default_age_bins
from repro.core.coverage import fleet_coverage
from repro.core.threshold_policy import PaperPolicy
from repro.model import TRACE_PERIOD_SECONDS, FarMemoryModel
from repro.model.trace import TelemetryBlock
from repro.obs import MetricRegistry, Tracer
from repro.tracestore import ColumnarTraceDatabase, TraceStore
from repro.workloads import CONTENT_PROFILES, JobSpec
from repro.workloads.job_generator import GeneratedPatternFactory

__all__ = ["WORKLOADS", "Workload", "Outcome"]

#: Verdicts a canary round can end with (``CanaryDecision.reason``).
CANARY_REASONS = frozenset({"promoted", "slo-breach", "insufficient-coverage"})

#: GP-Bandit candidate-sampling seed.  A tuner setting, not an input: it
#: is the same for every workload seed, so seeds vary only what the
#: program is given.
TUNER_SEED = 0

#: The canary ladder: half the clusters, then all of them, short soaks.
CANARY_STAGES = (
    DeploymentStage("qualification", 0.5, 10 * MINUTE),
    DeploymentStage("production", 1.0, 10 * MINUTE),
)


@dataclass
class Outcome:
    """What one pass produced, for the checks, metrics and digest.

    Attributes:
        quality: the deterministic end-to-end metrics of the pass.
        layer: per-layer figures read from program state (not timed).
        checks: ``(name, passed, detail)`` per output check.
        digest: sha256 over the pass's simulated statistics.
        steps: loop steps attempted; a step that raised is a failure.
        rows_exported: telemetry rows the program produced.
        rows_lost: produced rows that never landed in the store.
    """

    quality: Dict[str, float]
    layer: Dict[str, float]
    checks: List[Tuple[str, bool, str]]
    digest: str
    steps: int
    rows_exported: int
    rows_lost: int


class Workload:
    """One named workload: its reason, its sizes and its three phases.

    Subclasses implement :meth:`setup`, :meth:`loop` and :meth:`finish`.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, fast: bool = False):
        self.seed = int(seed)
        self.fast = fast

    def setup(self, workdir: Path) -> dict:
        """Build the pass's state (timed as ``setup_s``)."""
        raise NotImplementedError

    def loop(self, state: dict) -> None:
        """Run the paper's loop on ``state`` (timed as ``loop_s``)."""
        raise NotImplementedError

    def finish(self, state: dict) -> Outcome:
        """Check the outputs and summarise them (not timed)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _registry_and_tracer() -> Tuple[MetricRegistry, Tracer]:
    """A fresh registry and an enabled tracer, as a CLI run would have."""
    return MetricRegistry(), Tracer()


def _store_digest(store: TraceStore, h: "hashlib._Hash") -> None:
    """Fold every sealed segment's columns and the string tables in."""
    h.update(repr((store.jobs, store.machines, store.rows_total)).encode())
    for info in store.segments:
        with np.load(store.root / info.name) as seg:
            for column in sorted(seg.files):
                array = seg[column]
                h.update(column.encode())
                h.update(str(array.dtype).encode())
                h.update(np.ascontiguousarray(array).tobytes())
    for window in store.window_summaries():
        h.update(repr(sorted(window.to_dict().items())).encode())


def _tuning_digest(result, h: "hashlib._Hash") -> None:
    for trial in result.trials:
        h.update(
            repr(
                (
                    trial.config,
                    trial.report.total_cold_pages,
                    trial.report.promotion_rate_p98,
                )
            ).encode()
        )
    h.update(repr(result.best.config if result.best else None).encode())


def _reopened_rows(root: Path) -> int:
    """Row count of the store at ``root`` as a fresh reader sees it."""
    return TraceStore(root, registry=MetricRegistry(), create=False).rows_total


def tuned_pick(result):
    """The trial the loop deploys: the best feasible one, or, when no
    trial met the SLO, the least-violating one (lowest p98, then the
    most cold pages).  The canary then judges it on the live fleet."""
    if result.best is not None:
        return result.best
    return min(
        result.trials,
        key=lambda t: (t.report.promotion_rate_p98, -t.objective),
    )


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JobKind:
    """One slot of a machine's job mix.

    The mix is fixed per workload so that aggregate figures (coverage,
    the SLI tail, the tuned objective) depend on the seed only through
    the per-job random streams, not through which kinds of job a few
    draws happened to produce.
    """

    mib: int
    cold: float
    style: str
    content: str


class _JobSource:
    """Seeded source of job specs: the initial placement and churn.

    Cycles through ``kinds``; diurnal phase and amplitude, CPU share and
    lifetime come from the seed.
    """

    def __init__(self, seeds: SeedSequenceFactory, kinds, prefix: str,
                 lifetime: Tuple[int, int]):
        self._seeds = seeds
        self._kinds = kinds
        self._prefix = prefix
        self._lifetime = lifetime
        self._count = 0

    def __call__(self) -> JobSpec:
        index = self._count
        self._count += 1
        kind = self._kinds[index % len(self._kinds)]
        rng = self._seeds.stream(self._prefix, job=index)
        pages = kind.mib * MIB // PAGE_SIZE
        low, high = self._lifetime
        return JobSpec(
            job_id=f"{self._prefix}-{index:05d}",
            pages=pages,
            cpu_cores=float(np.clip(rng.lognormal(math.log(2.0), 0.5), 0.25, 16.0)),
            priority=1,
            content_profile=CONTENT_PROFILES[kind.content],
            pattern_factory=GeneratedPatternFactory(
                style=kind.style,
                pages=pages,
                cold=kind.cold,
                diurnal=True,
                amplitude=float(rng.uniform(0.3, 0.6)),
                phase_seconds=int(rng.integers(0, DAY)),
            ),
            cold_fraction_target=kind.cold,
            duration_seconds=int(
                math.exp(rng.uniform(math.log(low), math.log(high)))
            ),
        )


def _kernel_options() -> Dict[str, str]:
    """Select the columnar, cluster-pooled kernel while it is optional."""
    wanted = {"kernel": "columnar", "pool_scope": "cluster"}
    accepted = inspect.signature(quickfleet).parameters
    return {k: v for k, v in wanted.items() if k in accepted}


class FleetWorkload(Workload):
    """The whole loop on a simulated fleet.

    Simulate with telemetry exported into an on-disk
    ``ColumnarTraceDatabase``; flush and compile the traces; run a short
    ``AutotuningPipeline`` over the fast model; canary the winner with
    one ``FleetController`` round.
    """

    clusters = 2
    machines_per_cluster = 2
    machine_dram_gib = 8.0
    #: Job mix of every machine (one entry per job slot).
    kinds: Tuple[JobKind, ...] = ()
    #: Job lifetimes, log-uniform (seconds): churn during the loop.
    lifetime = (45 * MINUTE, 6 * HOUR)
    simulate_seconds = HOUR
    #: The job mix of the fast (self-test) mode.
    fast_kinds: Tuple[JobKind, ...] = ()
    tune_iterations = 4
    tune_batch = 4

    def _sim_seconds(self) -> int:
        return 20 * MINUTE if self.fast else self.simulate_seconds

    def setup(self, workdir: Path) -> dict:
        seeds = SeedSequenceFactory(self.seed)
        registry, tracer = _registry_and_tracer()
        root = workdir / "store"
        db = ColumnarTraceDatabase(root, registry=registry)
        kinds = self.fast_kinds if self.fast else self.kinds
        fleet = quickfleet(
            clusters=self.clusters,
            machines_per_cluster=self.machines_per_cluster,
            jobs_per_machine=0,
            seed=int(seeds.stream("fleet").integers(0, 2**31 - 1)),
            machine_dram_gib=self.machine_dram_gib,
            registry=registry,
            tracer=tracer,
            trace_db=db,
            **_kernel_options(),
        )
        population = self.machines_per_cluster * len(kinds)
        for index, cluster in enumerate(fleet.clusters):
            source = _JobSource(
                seeds.fork("cluster", index=index), kinds,
                f"c{index:02d}", self.lifetime,
            )
            cluster.submit_all([source() for _ in range(population)])
            cluster.enable_churn(source, population)
        return {
            "fleet": fleet, "db": db, "root": root,
            "registry": registry, "tracer": tracer, "steps": 0,
        }

    def loop(self, state: dict) -> None:
        fleet, db = state["fleet"], state["db"]
        registry, tracer = state["registry"], state["tracer"]
        state["steps"] += 1
        fleet.run(self._sim_seconds())
        state["steps"] += 1
        db.flush()
        traces = db.compiled_traces()
        state["traces"] = traces
        state["exporting"] = list(db.store.jobs)
        state["steps"] += 1
        with FarMemoryModel(traces, registry=registry, tracer=tracer) as model:
            pipeline = AutotuningPipeline(
                model,
                # Warm-up S is searched up to a quarter of the traced
                # horizon: a longer S would switch far memory off for the
                # whole trace.
                space=far_memory_search_space(
                    s_bounds=(60, max(120, self._sim_seconds() // 4))
                ),
                batch_size=self.tune_batch,
                seed=TUNER_SEED,
                registry=registry,
                tracer=tracer,
            )
            state["tuning"] = pipeline.run(iterations=self.tune_iterations)
        state["pick"] = tuned_pick(state["tuning"])
        state["steps"] += 1
        controller = FleetController(
            fleet, stages=CANARY_STAGES, registry=registry, tracer=tracer
        )
        state["canary"] = controller.canary(PaperPolicy(state["pick"].config))

    def finish(self, state: dict) -> Outcome:
        fleet, db = state["fleet"], state["db"]
        checks: List[Tuple[str, bool, str]] = []
        for machine in fleet.machines:
            try:
                check_machine_accounting(machine)
                checks.append((f"accounting {machine.machine_id}", True, ""))
            except InvariantViolation as exc:
                checks.append((f"accounting {machine.machine_id}", False, str(exc)))

        exporters = [e for c in fleet.clusters for e in c.exporters.values()]
        delivered = sum(e.entries_exported for e in exporters)
        dropped = sum(e.entries_dropped for e in exporters)
        stuck = sum(1 for e in exporters if e.sink_degraded)
        db.flush()
        landed = len(db)
        produced = delivered + dropped
        checks.append((
            "rows landed == exported - dropped",
            landed == produced - dropped and stuck == 0,
            f"landed={landed} exported={produced} dropped={dropped} "
            f"degraded_exporters={stuck}",
        ))
        reopened = _reopened_rows(state["root"])
        checks.append(("reopened store row count", reopened == landed,
                       f"reopened={reopened} landed={landed}"))

        traces = state.get("traces", [])
        compiled = {t.job_id for t in traces if t.intervals > 0}
        exporting = set(state.get("exporting", ()))
        checks.append((
            "compiled traces cover every job exporting before compile",
            bool(exporting) and exporting <= compiled,
            f"missing={sorted(exporting - compiled)[:5]}",
        ))
        canary = state.get("canary")
        reason = canary.reason if canary is not None else None
        checks.append(("canary reason is defined", reason in CANARY_REASONS,
                       f"reason={reason!r}"))

        tuning = state.get("tuning")
        pick = state.get("pick")
        report = fleet.coverage_report()
        quality = {
            "tuned_cold_pages": pick.objective if pick else 0.0,
            "tuned_p98_pct_per_min": pick.report.promotion_rate_p98 if pick else 0.0,
            # Over every 5-minute sample of the loop, not one instant:
            # the end state of a few machines swings with the canary.
            "coverage": fleet_coverage(
                [s for c in fleet.clusters for s in c.coverage_samples]
            ),
            "promotion_p98_pct_per_min": report["promotion_rate_p98_pct_per_min"],
        }
        trials = tuning.trials if tuning is not None else []
        layer = {
            "agent.rows_exported": float(produced),
            "agent.rows_dropped": float(dropped),
            "tracestore.bytes_written": float(db.store.bytes_written),
            "autotuner.feasible_ratio": (
                sum(t.feasible for t in trials) / len(trials) if trials else 0.0
            ),
        }

        h = hashlib.sha256()
        for sample in fleet.sli_history:
            h.update(repr((sample.time, sample.job_id, sample.promotions,
                           sample.working_set_pages,
                           sample.normalized_rate_pct_per_min,
                           sample.threshold)).encode())
        h.update(repr(sorted(report.items())).encode())
        _store_digest(db.store, h)
        if tuning is not None:
            _tuning_digest(tuning, h)
        if canary is not None:
            h.update(repr(canary.signature()).encode())
        return Outcome(
            quality=quality,
            layer=layer,
            checks=checks,
            digest=h.hexdigest(),
            steps=state["steps"],
            rows_exported=produced,
            rows_lost=produced - landed,
        )


class FleetLargeJobs(FleetWorkload):
    """A few 8 GiB machines, each running two mostly-cold 256-384 MiB
    jobs with churn.

    Why: per-page kernel work dominates here (kstaled scans of the pooled
    page columns, then job stepping); per-job agent and telemetry work is
    small.  This is the paper-shaped case (production jobs are GBs), and
    where an O(touched pages) tick must show.
    """

    name = "fleet_large_jobs"
    why = (
        "few 256 MiB-1 GiB mostly-cold jobs per 8 GiB machine: per-page "
        "kernel work (kstaled scans, job stepping) dominates the loop"
    )
    kinds = (
        JobKind(384, 0.7, "poisson", "mixed"),
        JobKind(256, 0.8, "poisson", "text"),
    )
    fast_kinds = (
        JobKind(48, 0.7, "poisson", "mixed"),
        JobKind(32, 0.8, "poisson", "text"),
    )


class FleetDenseJobs(FleetWorkload):
    """The same loop on machines packed with forty-two 2-8 MiB jobs each.

    Why: per-job Python cost shows here and nowhere else: node-agent
    control rounds, zswap decompression on promotions, one telemetry row
    per job per window, and model replay over hundreds of jobs.  With a
    page count of the same order as ``fleet_large_jobs``, a per-page
    kernel gain should show smaller here, and a per-job gain only here.
    """

    name = "fleet_dense_jobs"
    why = (
        "dozens of 2-8 MiB jobs per machine at a similar page count: "
        "per-job agent, telemetry and model-replay cost shows only here"
    )
    kinds = tuple(
        JobKind(mib, cold, style, content)
        for mib, cold, style, content in (
            (8, 0.7, "poisson", "mixed"),
            (4, 0.6, "poisson", "text"),
            (6, 0.75, "zipf", "mixed"),
            (2, 0.65, "poisson", "binary"),
            (8, 0.8, "phased", "numeric"),
            (4, 0.7, "poisson", "mixed"),
        )
    ) * 7
    fast_kinds = kinds[:6]


# ----------------------------------------------------------------------
# week_replay
# ----------------------------------------------------------------------


def synthetic_week(seed: int, jobs: int, windows: int) -> Dict[str, object]:
    """A week of five-minute telemetry windows for ``jobs`` jobs.

    Each job has a resident size, a cold share, a diurnal cycle and two
    power laws: the pages colder than threshold ``T`` fall as
    ``(T0 / T) ** a`` and the would-be promotions at ``T`` as
    ``(T0 / T) ** b``.  Window-to-window noise is Poisson, with rare
    bursts.  Per-job parameters are stratified draws (one per equal
    slice of each range, shuffled over jobs), so the fleet keeps the
    same spread of jobs for every seed and only which job gets which
    value, and the noise, change.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7EE4]))
    bins = default_age_bins()
    grid = np.asarray(bins.thresholds, dtype=np.float64)

    def stratified(low: float, high: float) -> np.ndarray:
        u = (rng.permutation(jobs) + rng.random(jobs)) / jobs
        return low + (high - low) * u

    resident = np.exp(stratified(np.log(24576), np.log(49152))).astype(np.int64)
    cold = stratified(0.5, 0.7)
    cold_slope = stratified(0.2, 0.6)
    promo_slope = stratified(0.8, 1.6)
    # Promotions per window at the minimum threshold, per working-set page.
    promo_scale = stratified(0.01, 0.06)
    amplitude = stratified(0.1, 0.4)
    phase = rng.uniform(0.0, 2 * np.pi, jobs)
    cpu = np.exp(stratified(np.log(0.5), np.log(8.0)))

    times = np.arange(windows, dtype=np.int64) * TRACE_PERIOD_SECONDS
    day_angle = 2 * np.pi * times / DAY
    # (windows, jobs) activity: diurnal cycle, bursty on top.
    activity = 1.0 + amplitude[None, :] * np.sin(day_angle[:, None] + phase[None, :])
    bursts = rng.random((windows, jobs)) < 0.01
    activity = activity * np.where(bursts, rng.uniform(2.0, 6.0, (windows, jobs)), 1.0)

    cold_now = np.clip(cold[None, :] / activity, 0.0, 0.97)
    cold_pages = resident[None, :] * cold_now
    working_set = np.maximum(1, (resident[None, :] - cold_pages)).astype(np.int64)

    ratio = grid[0] / grid  # (bins,)
    cold_tail = cold_pages[:, :, None] * ratio[None, None, :] ** cold_slope[None, :, None]
    cold_tail = rng.poisson(cold_tail).astype(np.int64)
    cold_tail = np.minimum.accumulate(cold_tail, axis=2)
    promo_mean = (
        promo_scale[None, :, None] * working_set[:, :, None] * activity[:, :, None]
        * ratio[None, None, :] ** promo_slope[None, :, None]
    )
    promo_tail = np.minimum.accumulate(rng.poisson(promo_mean).astype(np.int64), axis=2)

    def counts(tail: np.ndarray) -> np.ndarray:
        out = tail.copy()
        out[:, :, :-1] -= tail[:, :, 1:]
        return out

    return {
        "bins": bins,
        "times": times,
        "working_set": working_set,
        "resident": np.broadcast_to(resident, (windows, jobs)).copy(),
        "cpu": np.broadcast_to(cpu, (windows, jobs)).copy(),
        "cold_counts": counts(cold_tail),
        "promotion_counts": counts(promo_tail),
        "job_table": [f"job-{j:05d}" for j in range(jobs)],
        "machine_table": [f"m{m:04d}" for m in range(-(-jobs // 16))],
    }


class WeekReplay(Workload):
    """Ingest, compact and replay a stored week; no simulation at all.

    Why: the trace store, the fast model and the GP-Bandit do all the
    work (model replay most of it), so a kernel change must leave this
    workload unchanged.  It is also the only workload that reads the
    store back and rewrites it rather than only appending.

    The loop ingests the week as one ``TelemetryBlock`` per five-minute
    window into a fresh on-disk store, flushes it, compiles the replay
    tensors with ``compiled_traces`` (``CompiledTrace.from_columns``),
    compacts the oldest days to hourly rows, and runs a longer
    GP-Bandit over the fast model.  The store refuses to compile a mix
    of compacted and raw segments, so compile comes before compaction.
    """

    name = "week_replay"
    why = (
        "a stored week (2016 windows per job) with no simulation: the trace "
        "store, fast model and GP-Bandit do all the work; kernel code idles"
    )
    jobs = 12
    windows = 7 * DAY // TRACE_PERIOD_SECONDS
    compact_days = 5
    compact_factor = HOUR // TRACE_PERIOD_SECONDS
    tune_iterations = 6
    tune_batch = 4

    def __init__(self, seed: int, fast: bool = False):
        super().__init__(seed, fast)
        if fast:
            self.jobs, self.windows = 8, 2 * DAY // TRACE_PERIOD_SECONDS
            self.compact_days, self.tune_iterations = 1, 3
        self._week = synthetic_week(self.seed, self.jobs, self.windows)

    def setup(self, workdir: Path) -> dict:
        week = self._week
        jobs = self.jobs
        job_col = np.arange(jobs, dtype=np.int64)
        machine_col = job_col // 16
        zeros = np.zeros(jobs, dtype=np.int64)
        blocks = [
            TelemetryBlock(
                bins=week["bins"],
                job_table=week["job_table"],
                machine_table=week["machine_table"],
                job=job_col,
                machine=machine_col,
                time=np.full(jobs, week["times"][w], dtype=np.int64),
                working_set_pages=week["working_set"][w],
                resident_pages=week["resident"][w],
                cpu_cores=week["cpu"][w],
                promotion_counts=week["promotion_counts"][w],
                promotion_young=zeros,
                cold_counts=week["cold_counts"][w],
                cold_young=zeros,
            )
            for w in range(self.windows)
        ]
        registry, tracer = _registry_and_tracer()
        root = workdir / "store"
        db = ColumnarTraceDatabase(root, registry=registry)
        return {"blocks": blocks, "db": db, "root": root,
                "registry": registry, "tracer": tracer, "steps": 0}

    def loop(self, state: dict) -> None:
        db = state["db"]
        registry, tracer = state["registry"], state["tracer"]
        state["steps"] += 1
        for block in state["blocks"]:
            db.add_block(block)
        db.flush()
        state["steps"] += 1
        traces = db.compiled_traces()
        state["traces"] = traces
        state["steps"] += 1
        cutoff = self.compact_days * DAY
        state["downsampled"] = db.store.compact(self.compact_factor, before=cutoff)
        state["steps"] += 1
        with FarMemoryModel(traces, registry=registry, tracer=tracer) as model:
            pipeline = AutotuningPipeline(
                model, batch_size=self.tune_batch, seed=TUNER_SEED,
                registry=registry, tracer=tracer,
            )
            state["tuning"] = pipeline.run(iterations=self.tune_iterations)
            state["pick"] = tuned_pick(state["tuning"])
            # What the fleet ran before tuning, for the untuned SLI tail.
            state["baseline"], state["tuned"] = model.evaluate_many(
                [ThresholdPolicyConfig(), state["pick"].config]
            )

    def finish(self, state: dict) -> Outcome:
        db = state["db"]
        generated = self.jobs * self.windows
        downsampled = state.get("downsampled", 0)
        landed = len(db)
        checks: List[Tuple[str, bool, str]] = [(
            "rows landed == ingested - downsampled",
            landed == generated - downsampled,
            f"landed={landed} ingested={generated} downsampled={downsampled}",
        )]
        reopened = _reopened_rows(state["root"])
        checks.append(("reopened store row count", reopened == landed,
                       f"reopened={reopened} landed={landed}"))
        traces = state.get("traces", [])
        covered = {t.job_id for t in traces if t.intervals == self.windows}
        checks.append((
            "compiled traces cover every job",
            covered == set(self._week["job_table"]),
            f"covered={len(covered)} jobs={self.jobs}",
        ))

        tuning = state.get("tuning")
        pick = state.get("pick")
        tuned = state.get("tuned")
        baseline = state.get("baseline")
        quality = {
            "tuned_cold_pages": pick.objective if pick else 0.0,
            "tuned_p98_pct_per_min": pick.report.promotion_rate_p98 if pick else 0.0,
            "coverage": _replay_coverage(tuned, traces) if tuned else 0.0,
            "promotion_p98_pct_per_min": (
                baseline.promotion_rate_p98 if baseline else 0.0
            ),
        }
        trials = tuning.trials if tuning is not None else []
        layer = {
            "agent.rows_exported": 0.0,
            "agent.rows_dropped": 0.0,
            "tracestore.bytes_written": float(db.store.bytes_written),
            "autotuner.feasible_ratio": (
                sum(t.feasible for t in trials) / len(trials) if trials else 0.0
            ),
        }
        h = hashlib.sha256()
        _store_digest(db.store, h)
        if tuning is not None:
            _tuning_digest(tuning, h)
        h.update(repr(sorted(quality.items())).encode())
        return Outcome(
            quality=quality,
            layer=layer,
            checks=checks,
            digest=h.hexdigest(),
            steps=state["steps"],
            rows_exported=generated,
            rows_lost=generated - downsampled - landed,
        )


def _replay_coverage(report, traces) -> float:
    """Replayed far memory over cold memory at the minimum threshold."""
    captured = sum(r.mean_cold_pages for r in report.job_results)
    cold = sum(float(np.mean(t.cold_suffix_sums[:, 0])) for t in traces if t.intervals)
    return captured / cold if cold else 0.0


#: Workload name -> class, in the order ``BENCHMARK.json`` lists them.
WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (FleetLargeJobs, FleetDenseJobs, WeekReplay)
}
