"""Fleet job-mix generation.

Real WSCs run thousands of heterogeneous jobs; the paper's Figs. 2/3 show
per-job cold fractions spanning <9 % (bottom decile) to >=43 % (top decile)
with a fleet mean around 32 % at T = 120 s.  :class:`FleetMixGenerator`
draws job specs whose cold-fraction distribution, sizes, priorities, and
content kinds reproduce that heterogeneity, so cluster-level results
inherit realistic variance rather than being an artifact of identical
jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.common.rng import SeedSequenceFactory
from repro.common.units import DAY, GIB, HOUR, MIB, PAGE_SIZE
from repro.common.validation import check_fraction, check_positive
from repro.kernel.compression import ContentProfile
from repro.workloads.access_patterns import (
    AccessPattern,
    DiurnalModulation,
    HeterogeneousPoissonPattern,
    PhasedPattern,
    ZipfianPattern,
    make_rates_for_cold_fraction,
)
from repro.workloads.content import CONTENT_PROFILES

__all__ = ["JobSpec", "GeneratedPatternFactory", "FleetMixGenerator"]

#: Factory signature: given an RNG, build this job's access pattern.
PatternFactory = Callable[[np.random.Generator], AccessPattern]


@dataclass(frozen=True)
class GeneratedPatternFactory:
    """Picklable access-pattern factory for generated jobs.

    :class:`FleetMixGenerator` pre-draws the style and modulation
    parameters and captures them here instead of in a closure, so job
    specs stay comparable, printable value objects.

    Attributes:
        style: "poisson", "zipf", or "phased".
        pages: the job's footprint in pages.
        cold: the cold-fraction target the pattern is tuned for.
        diurnal: whether to wrap the pattern in diurnal modulation.
        amplitude: diurnal modulation amplitude.
        phase_seconds: diurnal phase offset.
    """

    style: str
    pages: int
    cold: float
    diurnal: bool
    amplitude: float
    phase_seconds: int

    def __call__(self, pattern_rng: np.random.Generator) -> AccessPattern:
        if self.style == "zipf":
            # Zipf head covering ~(1-cold) of pages needs alpha tuned to
            # the cold target; steeper alpha = smaller effective head.
            alpha = 1.0 + self.cold
            inner: AccessPattern = ZipfianPattern(
                self.pages, accesses_per_second=self.pages / 200.0, alpha=alpha
            )
        elif self.style == "phased":
            inner = PhasedPattern(
                self.pages,
                hot_fraction=max(0.02, 1.0 - self.cold - 0.2),
                phase_seconds=int(pattern_rng.integers(1 * HOUR, 6 * HOUR)),
            )
        else:
            rates = make_rates_for_cold_fraction(
                self.pages, self.cold, pattern_rng
            )
            inner = HeterogeneousPoissonPattern(rates)
        if self.diurnal:
            return DiurnalModulation(inner, amplitude=self.amplitude,
                                     phase_seconds=self.phase_seconds)
        return inner


@dataclass
class JobSpec:
    """Everything the cluster needs to run one job.

    Attributes:
        job_id: fleet-unique name.
        pages: memory footprint in 4 KiB pages.
        cpu_cores: average CPU usage, for packing and Fig. 8 normalization.
        priority: higher = evicted later (best-effort jobs are 0).
        content_profile: compressibility of this job's data.
        pattern_factory: builds the job's access pattern.
        cold_fraction_target: the steady-state cold share this job was
            generated for (ground truth for calibration tests).
        duration_seconds: job lifetime; None = runs forever.
    """

    job_id: str
    pages: int
    cpu_cores: float
    priority: int
    content_profile: ContentProfile
    pattern_factory: PatternFactory
    cold_fraction_target: float = 0.0
    duration_seconds: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive(self.pages, "pages")
        check_positive(self.cpu_cores, "cpu_cores")
        check_fraction(self.cold_fraction_target, "cold_fraction_target")

    @property
    def bytes(self) -> int:
        """Memory footprint in bytes."""
        return self.pages * PAGE_SIZE


@dataclass
class FleetMixGenerator:
    """Draws heterogeneous job specs matching the paper's fleet statistics.

    Cold fractions are Beta-distributed with mean ~0.32 and enough spread to
    land the Fig. 3 deciles; sizes are lognormal between tens of MiB and
    several GiB; ~10 % of jobs get cache-like Zipf patterns and ~10 %
    phase-shifting patterns, the rest heterogeneous-Poisson with diurnal
    modulation.

    Attributes:
        seeds: RNG factory; the generator uses the ``"jobmix"`` stream.
        mean_cold_fraction: target fleet-mean cold share at T = 120 s.
        cold_concentration: Beta concentration (lower = more spread).
        min_pages / max_pages: clip range for job sizes.
        diurnal_fraction: share of jobs with diurnal load modulation.
        duration_range: optional (low, high) seconds; when set, jobs get
            log-uniform finite lifetimes (fleet churn), otherwise they run
            forever.
        name_prefix: job-id prefix (``"job"`` → ``job-00000`` …).  Give
            every generator feeding one fleet a distinct prefix so ids
            stay fleet-unique.
    """

    seeds: SeedSequenceFactory
    mean_cold_fraction: float = 0.32
    cold_concentration: float = 4.0
    min_pages: int = (64 * MIB) // PAGE_SIZE
    max_pages: int = (8 * GIB) // PAGE_SIZE
    diurnal_fraction: float = 0.6
    duration_range: Optional[tuple] = None
    name_prefix: str = "job"
    _counter: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        check_fraction(self.mean_cold_fraction, "mean_cold_fraction")
        check_positive(self.cold_concentration, "cold_concentration")
        check_positive(self.min_pages, "min_pages")
        check_fraction(self.diurnal_fraction, "diurnal_fraction")

    def generate(self, n_jobs: int) -> List[JobSpec]:
        """Draw ``n_jobs`` fresh specs."""
        return [self.next_job() for _ in range(n_jobs)]

    def next_job(self) -> JobSpec:
        """Draw one spec; job ids are sequential and unique per generator."""
        index = self._counter
        self._counter += 1
        rng = self.seeds.stream("jobmix", job=index)

        cold = self._draw_cold_fraction(rng)
        pages = self._draw_pages(rng)
        cpu = float(np.clip(rng.lognormal(math.log(2.0), 0.8), 0.1, 32.0))
        priority = int(rng.choice([0, 1, 2], p=[0.3, 0.5, 0.2]))
        kind = str(
            rng.choice(
                ["text", "mixed", "binary", "multimedia", "numeric"],
                p=[0.20, 0.45, 0.15, 0.08, 0.12],
            )
        )
        pattern_factory = self._make_pattern_factory(pages, cold, rng)
        duration = None
        if self.duration_range is not None:
            low, high = self.duration_range
            duration = int(
                math.exp(rng.uniform(math.log(low), math.log(high)))
            )
        return JobSpec(
            job_id=f"{self.name_prefix}-{index:05d}",
            pages=pages,
            cpu_cores=cpu,
            priority=priority,
            content_profile=CONTENT_PROFILES[kind],
            pattern_factory=pattern_factory,
            cold_fraction_target=cold,
            duration_seconds=duration,
        )

    def _draw_cold_fraction(self, rng: np.random.Generator) -> float:
        mean = self.mean_cold_fraction
        a = mean * self.cold_concentration
        b = (1.0 - mean) * self.cold_concentration
        return float(np.clip(rng.beta(a, b), 0.01, 0.9))

    def _draw_pages(self, rng: np.random.Generator) -> int:
        median = 512 * MIB / PAGE_SIZE
        pages = int(rng.lognormal(math.log(median), 1.0))
        return int(np.clip(pages, self.min_pages, self.max_pages))

    def _make_pattern_factory(
        self, pages: int, cold: float, rng: np.random.Generator
    ) -> PatternFactory:
        style = str(rng.choice(["poisson", "zipf", "phased"], p=[0.8, 0.1, 0.1]))
        diurnal = bool(rng.random() < self.diurnal_fraction)
        amplitude = float(rng.uniform(0.3, 0.7))
        phase = int(rng.integers(0, DAY))
        return GeneratedPatternFactory(
            style=style,
            pages=pages,
            cold=cold,
            diurnal=diurnal,
            amplitude=amplitude,
            phase_seconds=phase,
        )
