"""kstaled: the page-age scanner daemon (paper §5.1).

kstaled walks page tables every ``scan_period`` (120 s), reads and clears
PTE accessed bits, maintains the 8-bit per-page ages, and updates the two
per-job histograms the control plane consumes.  The heavy lifting is inside
:meth:`repro.kernel.memcg.MemCg.scan_update`; this daemon sequences scans
across memcgs, tracks its own CPU cost (the paper budgets <11 % of one
logical core), and exposes scan counters for tests and monitoring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.common.simtime import PeriodicSchedule
from repro.common.units import KSTALED_SCAN_PERIOD
from repro.common.validation import check_positive
from repro.kernel.memcg import MemCg

if TYPE_CHECKING:
    from repro.kernel.columnar import MachinePagePool
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["Kstaled"]

#: Modelled cost of examining one page's PTEs during a scan.  ~20 ns/page
#: keeps a 256 GiB machine (64 M pages) around 10 % of one core at a 120 s
#: period, matching the paper's measured budget.
SCAN_SECONDS_PER_PAGE = 20e-9


class Kstaled:
    """Machine-wide scanner over all memcgs.

    Args:
        scan_period: seconds between scans of each memcg (120 s).
        machine_id: label value for exported metrics ("" standalone).
        registry: metrics registry (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    def __init__(
        self,
        scan_period: int = KSTALED_SCAN_PERIOD,
        machine_id: str = "",
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        check_positive(scan_period, "scan_period")
        self.scan_period = int(scan_period)
        self.machine_id = machine_id
        self._schedule = PeriodicSchedule(self.scan_period)
        self.scans_completed = 0
        self.pages_scanned = 0
        self.cpu_seconds = 0.0

        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._m_pages = registry.counter(
            MetricName.PAGES_SCANNED_TOTAL,
            "Pages examined by kstaled accessed-bit scans.", ("machine",)
        ).labels(machine=machine_id)
        self._m_scans = registry.counter(
            MetricName.KSTALED_SCANS_TOTAL,
            "Completed machine-wide kstaled scan rounds.", ("machine",)
        ).labels(machine=machine_id)
        self._m_cpu = registry.counter(
            MetricName.KSTALED_CPU_SECONDS_TOTAL,
            "Modelled kstaled CPU seconds (paper budget: <11% of a core).",
            ("machine",)
        ).labels(machine=machine_id)

    def maybe_scan(
        self,
        now: int,
        memcgs: Iterable[MemCg],
        pool: Optional["MachinePagePool"] = None,
    ) -> bool:
        """Run a scan if the period boundary has been crossed.

        Returns True when a scan ran.
        """
        if not self._schedule.due(now):
            return False
        with self._tracer.span("kstaled.scan", sim_time=now):
            self.scan(memcgs, pool=pool)
        return True

    def scan(
        self,
        memcgs: Iterable[MemCg],
        pool: Optional["MachinePagePool"] = None,
    ) -> None:
        """Unconditionally scan every memcg once.

        With a columnar ``pool``, the whole machine is aged and re-binned
        in one array sweep (:meth:`MachinePagePool.scan_all`); otherwise
        each memcg runs its own ``scan_update``.  Both paths are
        bit-equivalent.
        """
        if pool is not None:
            pages = pool.scan_all(memcgs)
        else:
            pages = 0
            for memcg in memcgs:
                memcg.scan_update()
                pages += memcg.resident_pages
        self.pages_scanned += pages
        self.cpu_seconds += pages * SCAN_SECONDS_PER_PAGE
        self.scans_completed += 1
        self._m_pages.inc(pages)
        self._m_cpu.inc(pages * SCAN_SECONDS_PER_PAGE)
        self._m_scans.inc()

    def utilization_of_core(self, elapsed_seconds: float) -> float:
        """Fraction of one logical core consumed so far."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.cpu_seconds / elapsed_seconds
