"""kreclaimd: the proactive reclaim daemon (paper §5.1).

Once the node agent publishes a per-job cold-age threshold, kreclaimd walks
each memcg's LRU, finds pages whose age meets or exceeds that job's
threshold, and hands them to zswap for compression.  It runs as a
background task in slack cycles; a per-invocation page budget models the
"unobtrusive background task" behaviour (it never stalls allocations the
way reactive direct reclaim does — that contrast is the §3.2 ablation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.common.validation import check_positive
from repro.kernel.memcg import MemCg
from repro.kernel.zswap import Zswap

if TYPE_CHECKING:
    from repro.kernel.columnar import MachinePagePool
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["Kreclaimd"]


class Kreclaimd:
    """Background compressor of cold pages.

    Args:
        zswap: the machine's zswap instance.
        pages_per_run: optional cap on pages compressed per invocation,
            modelling the bounded slack-cycle budget; ``None`` = unbounded.
        machine_id: label value for exported metrics ("" standalone).
        registry: metrics registry (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    def __init__(
        self,
        zswap: Zswap,
        pages_per_run: Optional[int] = None,
        machine_id: str = "",
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if pages_per_run is not None:
            check_positive(pages_per_run, "pages_per_run")
        self.zswap = zswap
        self.pages_per_run = pages_per_run
        self.machine_id = machine_id
        self.runs = 0
        self.pages_reclaimed = 0

        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._m_runs = registry.counter(
            MetricName.KRECLAIMD_RUNS_TOTAL,
            "Completed kreclaimd reclaim passes.", ("machine",)
        ).labels(machine=self.machine_id)
        self._m_pages = registry.counter(
            MetricName.PAGES_RECLAIMED_TOTAL,
            "Pages moved to far memory by proactive reclaim.", ("machine",)
        ).labels(machine=self.machine_id)

    def run(
        self,
        memcgs: Iterable[MemCg],
        pool: Optional["MachinePagePool"] = None,
    ) -> int:
        """One reclaim pass; returns pages moved to far memory.

        Per memcg: skip jobs whose zswap is disabled (warm-up or at their
        memory limit), collect LRU candidates at the current threshold,
        oldest first, and compress within the remaining budget.  With a
        columnar ``pool``, candidate collection runs as one machine-wide
        mask pass instead of per-memcg array work; ordering, budgeting and
        compression are identical either way.
        """
        budget = self.pages_per_run
        moved = 0
        with self._tracer.span("kreclaimd.run"):
            for memcg, candidates in self._candidate_stream(memcgs, pool):
                # LRU walk order: inactive list first, oldest first.
                candidates = memcg.reclaim_order(candidates)
                if budget is not None:
                    if budget <= 0:
                        break
                    candidates = candidates[:budget]
                stored = self.zswap.compress(memcg, candidates)
                moved += stored
                if budget is not None:
                    # Attempted pages consume budget whether or not they
                    # stored: cycles were spent either way.
                    budget -= int(candidates.size)
        self.runs += 1
        self.pages_reclaimed += moved
        self._m_runs.inc()
        self._m_pages.inc(moved)
        return moved

    @staticmethod
    def _candidate_stream(
        memcgs: Iterable[MemCg],
        pool: Optional["MachinePagePool"],
    ) -> Iterator[Tuple[MemCg, np.ndarray]]:
        """Yield ``(memcg, candidates)`` in LRU-walk order, skipping
        zswap-disabled memcgs and empty candidate sets."""
        if pool is not None:
            yield from pool.reclaim_pairs(memcgs)
            return
        for memcg in memcgs:
            if not memcg.zswap_enabled:
                continue
            candidates = memcg.reclaim_candidates(memcg.cold_age_threshold)
            if candidates.size == 0:
                continue
            yield memcg, candidates
