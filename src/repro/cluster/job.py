"""A job instance running on a machine.

Binds a :class:`~repro.workloads.job_generator.JobSpec` to a machine:
allocates the job's pages, instantiates its access pattern, and translates
pattern-space page indices into memcg slot indices on every tick.
"""

from __future__ import annotations

from repro.common.rng import SeedSequenceFactory, stable_hash
from repro.kernel.machine import Machine
from repro.workloads.job_generator import JobSpec

__all__ = ["RunningJob"]


class RunningJob:
    """One placed, running job.

    Args:
        spec: the job description.
        machine: host machine (the memcg must not exist yet).
        seeds: RNG factory; the job uses streams keyed by its id.
        start_time: placement time in seconds.
    """

    def __init__(
        self,
        spec: JobSpec,
        machine: Machine,
        seeds: SeedSequenceFactory,
        start_time: int = 0,
    ):
        self.spec = spec
        self.machine = machine
        self.start_time = int(start_time)
        job_index = abs(stable_hash(spec.job_id)) & 0x7FFFFFFF
        self._pattern_rng = seeds.stream("pattern", job=job_index)
        self._drive_rng = seeds.stream("drive", job=job_index)
        self.pattern = spec.pattern_factory(self._pattern_rng)

        machine.add_job(
            spec.job_id,
            capacity_pages=spec.pages,
            content_profile=spec.content_profile,
        )
        self.page_map = machine.allocate(spec.job_id, spec.pages)
        self.promotions_total = 0

    @property
    def job_id(self) -> str:
        """The job's fleet-unique name."""
        return self.spec.job_id

    def expired(self, now: int) -> bool:
        """True once the job's lifetime has elapsed."""
        duration = self.spec.duration_seconds
        return duration is not None and now - self.start_time >= duration

    def step(self, now: int, interval_seconds: int) -> int:
        """Run one tick of the access pattern; returns promotions incurred."""
        reads, writes = self.pattern.step(now, interval_seconds, self._drive_rng)
        promotions = 0
        if reads.size:
            promotions += self.machine.touch(
                self.job_id, self.page_map[reads], write=False
            )
        if writes.size:
            promotions += self.machine.touch(
                self.job_id, self.page_map[writes], write=True
            )
        self.promotions_total += promotions
        return promotions

    def stop(self) -> None:
        """Tear the job down on its machine."""
        self.machine.remove_job(self.job_id)
