"""Fault plans: seeded, declarative chaos schedules (paper §7, §8.2).

The paper's deployment argument is that software-defined far memory is
safe at warehouse scale because failure domains stay machine-local and
the control plane degrades instead of violating the promotion SLO.  A
:class:`FaultPlan` is the reproducible half of testing that claim: a
sorted schedule of :class:`FaultEvent` records, generated from
:class:`repro.common.rng.SeedSequenceFactory` streams so the exact same
faults land at the exact same simulated instants on every replay —
today or in CI next year.

Plans are *data*; the side effects live in
:class:`repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.common.errors import ReproError
from repro.common.rng import SeedSequenceFactory
from repro.common.validation import check_fraction, check_positive

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanError",
    "KNOWN_FAULT_KINDS",
    "SCENARIO_NAMES",
    "build_scenario",
]

#: Target value meaning "every machine in the cluster".
ALL_MACHINES = -1


class FaultPlanError(ReproError):
    """A fault plan or scenario request is malformed."""


class FaultKind:
    """Canonical fault-kind names.

    Episodic kinds (``duration > 0``) are active over a window and are
    re-asserted level-triggered every tick while the window is open, so
    they survive process moves and runtime rewiring; instantaneous kinds
    fire once at their start time.
    """

    #: Episodic: the machine crashes (jobs die and reschedule) and is
    #: repaired ``duration`` seconds later; ``duration=0`` never repairs.
    MACHINE_CRASH = "machine_crash"
    #: Episodic: the telemetry sink refuses every ``add`` on the target
    #: machines; exporters spill to their retry buffers.
    SINK_OUTAGE = "sink_outage"
    #: Episodic: workload turns mostly incompressible — the zswap payload
    #: cutoff drops to ``magnitude`` of its configured value, rejecting
    #: (and burning CPU on) everything above it.
    INCOMPRESSIBLE_STORM = "incompressible_storm"
    #: Episodic: compression fails outright (cutoff pinned at zero; every
    #: store is rejected), the §3.2 worst case.
    COMPRESSION_FAILURE = "compression_failure"
    #: Instantaneous: a working-set spike — a ``magnitude`` fraction of
    #: every target job's resident pages is touched at once, promoting
    #: whatever was cold.
    MEMORY_PRESSURE = "memory_pressure"
    #: Instantaneous: a ``magnitude`` fraction of the target machines'
    #: jobs get their kernel histograms flagged corrupt; the node agent
    #: reacts by disabling zswap and restarting warm-up.
    HISTOGRAM_CORRUPT = "histogram_corrupt"


#: Every kind a fault event may carry.
KNOWN_FAULT_KINDS = frozenset(
    value
    for name, value in vars(FaultKind).items()
    if not name.startswith("_") and isinstance(value, str)
)

#: Kinds that open an episode (have an end) rather than firing once.
EPISODIC_KINDS = frozenset({
    FaultKind.MACHINE_CRASH,
    FaultKind.SINK_OUTAGE,
    FaultKind.INCOMPRESSIBLE_STORM,
    FaultKind.COMPRESSION_FAILURE,
})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        time: simulation second the fault starts.
        kind: one of :data:`KNOWN_FAULT_KINDS`.
        duration: episode length in seconds for episodic kinds (0 means
            "forever" for crashes; ignored for instantaneous kinds).
        target: machine ordinal within the cluster (taken modulo the
            machine count at injection time) or :data:`ALL_MACHINES`.
        magnitude: kind-specific intensity in ``[0, 1]`` — payload-cutoff
            fraction for storms, touched/flagged fraction for pressure
            spikes and histogram corruption.
    """

    time: int
    kind: str
    duration: int = 0
    target: int = ALL_MACHINES
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_FAULT_KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.time}")
        if self.duration < 0:
            raise FaultPlanError(
                f"fault duration must be >= 0, got {self.duration}"
            )
        check_fraction(self.magnitude, "magnitude")

    @property
    def end_time(self) -> float:
        """When the episode closes (inf for one-way or instant faults)."""
        if self.kind in EPISODIC_KINDS and self.duration > 0:
            return self.time + self.duration
        return float("inf")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted schedule of fault events.

    Attributes:
        events: the schedule, sorted by (time, kind, target).
        name: scenario label for logs/metrics ("custom" when hand-built).
    """

    events: Tuple[FaultEvent, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        ordered = tuple(sorted(
            self.events, key=lambda e: (e.time, e.kind, e.target)
        ))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def horizon(self) -> int:
        """Last second at which this plan still changes anything."""
        last = 0
        for event in self.events:
            end = event.end_time
            last = max(last, event.time if end == float("inf") else int(end))
        return last


# ----------------------------------------------------------------------
# Named scenarios
# ----------------------------------------------------------------------

def _crash(seeds: SeedSequenceFactory, duration: int,
           n_machines: int) -> List[FaultEvent]:
    """One machine dies a quarter of the way in, repaired mid-run."""
    rng = seeds.stream("faults.plan.crash")
    return [FaultEvent(
        time=duration // 4,
        kind=FaultKind.MACHINE_CRASH,
        duration=duration // 4,
        target=int(rng.integers(0, n_machines)),
    )]


def _sink_outage(seeds: SeedSequenceFactory, duration: int,
                 n_machines: int) -> List[FaultEvent]:
    """Every exporter loses its sink for the middle third of the run."""
    del seeds, n_machines
    return [FaultEvent(
        time=duration // 3,
        kind=FaultKind.SINK_OUTAGE,
        duration=duration // 3,
        target=ALL_MACHINES,
    )]


def _storm(seeds: SeedSequenceFactory, duration: int,
           n_machines: int) -> List[FaultEvent]:
    """Fleet-wide incompressible storm over the middle half of the run."""
    del seeds, n_machines
    return [FaultEvent(
        time=duration // 4,
        kind=FaultKind.INCOMPRESSIBLE_STORM,
        duration=duration // 2,
        target=ALL_MACHINES,
        magnitude=0.2,
    )]


def _compression_failure(seeds: SeedSequenceFactory, duration: int,
                         n_machines: int) -> List[FaultEvent]:
    """One machine's compressor fails outright for a third of the run."""
    rng = seeds.stream("faults.plan.compression")
    return [FaultEvent(
        time=duration // 4,
        kind=FaultKind.COMPRESSION_FAILURE,
        duration=duration // 3,
        target=int(rng.integers(0, n_machines)),
        magnitude=0.0,
    )]


def _pressure(seeds: SeedSequenceFactory, duration: int,
              n_machines: int) -> List[FaultEvent]:
    """Three working-set spikes at seeded times on seeded machines."""
    rng = seeds.stream("faults.plan.pressure")
    times = sorted(
        int(t) for t in rng.integers(duration // 10, duration, size=3)
    )
    return [
        FaultEvent(
            time=t,
            kind=FaultKind.MEMORY_PRESSURE,
            target=int(rng.integers(0, n_machines)),
            magnitude=0.3,
        )
        for t in times
    ]


def _histogram_corrupt(seeds: SeedSequenceFactory, duration: int,
                       n_machines: int) -> List[FaultEvent]:
    """Mid-run, every job's kernel histograms are flagged corrupt."""
    del seeds, n_machines
    return [FaultEvent(
        time=duration // 2,
        kind=FaultKind.HISTOGRAM_CORRUPT,
        target=ALL_MACHINES,
        magnitude=1.0,
    )]


def _mixed(seeds: SeedSequenceFactory, duration: int,
           n_machines: int) -> List[FaultEvent]:
    """The acceptance scenario: crash + sink outage + incompressible storm."""
    return (
        _crash(seeds, duration, n_machines)
        + _sink_outage(seeds, duration, n_machines)
        + _storm(seeds, duration, n_machines)
    )


_SCENARIOS: Dict[
    str, Callable[[SeedSequenceFactory, int, int], List[FaultEvent]]
] = {
    "crash": _crash,
    "sink_outage": _sink_outage,
    "storm": _storm,
    "compression_failure": _compression_failure,
    "pressure": _pressure,
    "histogram_corrupt": _histogram_corrupt,
    "mixed": _mixed,
}

#: Scenario names accepted by :func:`build_scenario` / ``repro chaos``.
SCENARIO_NAMES = tuple(sorted(_SCENARIOS))


def build_scenario(
    name: str,
    seeds: SeedSequenceFactory,
    duration_seconds: int,
    n_machines: int,
) -> FaultPlan:
    """Build a named scenario's plan for one cluster.

    Args:
        name: one of :data:`SCENARIO_NAMES`.
        seeds: seed factory scoping the scenario's random choices (fork a
            per-cluster child so sibling clusters get disjoint faults).
        duration_seconds: intended run length; event times scale with it.
        n_machines: machine count used to draw crash/storm targets.

    Raises:
        FaultPlanError: unknown scenario name.
    """
    check_positive(duration_seconds, "duration_seconds")
    check_positive(n_machines, "n_machines")
    builder = _SCENARIOS.get(name)
    if builder is None:
        raise FaultPlanError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}"
        )
    events = builder(seeds, duration_seconds, n_machines)
    return FaultPlan(events=tuple(events), name=name)
