"""The columnar fleet kernel: machine-pooled page state.

The scalar kernel keeps one set of numpy arrays per memcg, so every tick
pays a Python dispatch per memcg — ~30 array ops per ``scan_update``, the
reclaim mask, the accounting sums — multiplied by every job on every
machine.  This module pools all of it per machine:

* **per-page columns** (``resident``, ``age_scans``, ``accessed``, tier
  ``state``, ``incompressible``, ``dirtied``, ``unevictable``,
  ``payload_bytes``, ``lru_active``, THP ``huge_group``, the histogram-bin
  cache and the reclaim mask) live in dense machine-wide arrays, one
  contiguous *segment* per memcg;
* **per-memcg histograms** (cold-age snapshot and cumulative promotion
  counts) live as rows of two ``(memcgs, bins)`` matrices plus young-count
  vectors, so a scan updates every job's histogram with a handful of
  ``bincount`` scatter-adds.

:class:`ColumnarMemCg` is a :class:`~repro.kernel.memcg.MemCg` whose
arrays are numpy *views* into the pool: every inherited method —
``allocate``/``release``/``touch``, zswap's tier flips, huge-page
mapping — runs unchanged on the views and stays O(touched), and is
bit-identical to the scalar kernel *by construction*.  The pooled fast
paths (:meth:`MachinePagePool.scan_all`,
:meth:`MachinePagePool.reclaim_pairs`, the accounting reductions) replay
the exact per-slot arithmetic of the scalar methods as whole-machine
array ops; the scalar kernel remains the bit-equivalence oracle, much
as the naive per-interval replay loop under ``tests/`` oracles the
model's fleet-wide array replay.

Every machine owns exactly one pool, which its own kstaled scans and its
own kreclaimd reclaims — the paper's per-machine daemons (§5.1).  Select
the backend with ``MachineConfig(kernel="columnar")``; everything
downstream (node agent, telemetry, faults, the parallel engine) is
unaware of the layout.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.checks.contracts import verify_column_contracts
from repro.checks.invariants import check_memcg_histogram, invariants_enabled
from repro.common.units import MAX_PAGE_AGE_SCANS
from repro.core.histograms import AgeBins, AgeHistogram
from repro.kernel.memcg import _HIST_NO_PAGE, _HIST_YOUNG, MemCg, PageState

__all__ = ["ColumnarMemCg", "MachinePagePool", "PooledAgeHistogram"]

#: Pool columns: (pool attribute, dtype, fill value for free slots).  The
#: fill values equal a freshly constructed MemCg's defaults, so a new
#: segment needs no initialization beyond ``owner_row``.
_PAGE_FIELDS: Tuple[Tuple[str, type, object], ...] = (
    ("resident", np.bool_, False),
    ("age_scans", np.int32, 0),
    ("accessed", np.bool_, False),
    ("state", np.uint8, int(PageState.NEAR)),
    ("incompressible", np.bool_, False),
    ("dirtied", np.bool_, False),
    ("unevictable", np.bool_, False),
    ("payload_bytes", np.int32, 0),
    ("lru_active", np.bool_, False),
    ("huge_group", np.int64, -1),
    ("hist_bin", np.int16, _HIST_NO_PAGE),
    ("reclaim_mask", np.bool_, False),
    ("owner_row", np.int32, -1),
)

#: memcg attribute -> pool column for the per-page views.  ``owner_row``
#: is pool-internal; ``huge_group`` stays memcg-local (group ids are
#: relative to the segment base) so segments move without translation.
_VIEW_BINDINGS: Tuple[Tuple[str, str], ...] = (
    ("resident", "resident"),
    ("age_scans", "age_scans"),
    ("accessed", "accessed"),
    ("state", "state"),
    ("incompressible", "incompressible"),
    ("dirtied", "dirtied"),
    ("unevictable", "unevictable"),
    ("payload_bytes", "payload_bytes"),
    ("lru_active", "lru_active"),
    ("huge_group", "huge_group"),
    ("_hist_bin", "hist_bin"),
    ("_reclaim_mask", "reclaim_mask"),
)

#: Per-row reclaim-threshold sentinel no page age can meet (ages saturate
#: at MAX_PAGE_AGE_SCANS); also clamps huge finite thresholds.
_NEVER_SCANS = 1 << 62

#: The pool's array layout promise, one entry per pooled column.  The
#: static pass (``repro lint --flow``, rules CON001/CON002) checks every
#: visible assignment against this table; the runtime half
#: (:func:`repro.checks.contracts.verify_column_contracts`) re-verifies
#: the live arrays in :meth:`MachinePagePool.scan_all` under
#: ``REPRO_CHECKS=1`` — covering the ``setattr`` loops the static pass
#: cannot see.  Must stay a pure literal (both halves parse it).
COLUMN_CONTRACTS = {
    # Per-page columns (mirror _PAGE_FIELDS; dense [0, cap) arrays).
    "MachinePagePool.resident": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.age_scans": {"dtype": "int32", "ndim": 1},
    "MachinePagePool.accessed": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.state": {"dtype": "uint8", "ndim": 1},
    "MachinePagePool.incompressible": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.dirtied": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.unevictable": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.payload_bytes": {"dtype": "int32", "ndim": 1},
    "MachinePagePool.lru_active": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.huge_group": {"dtype": "int64", "ndim": 1},
    "MachinePagePool.hist_bin": {"dtype": "int16", "ndim": 1},
    "MachinePagePool.reclaim_mask": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.owner_row": {"dtype": "int32", "ndim": 1},
    # Per-memcg rows (histogram matrices + bookkeeping vectors).
    "MachinePagePool.row_base": {"dtype": "int64", "ndim": 1},
    "MachinePagePool.row_size": {"dtype": "int64", "ndim": 1},
    "MachinePagePool.cold_counts": {"dtype": "int64", "ndim": 2},
    "MachinePagePool.cold_young": {"dtype": "int64", "ndim": 1},
    "MachinePagePool.promo_counts": {"dtype": "int64", "ndim": 2},
    "MachinePagePool.promo_young": {"dtype": "int64", "ndim": 1},
    "MachinePagePool.row_reclaim_thr": {"dtype": "int64", "ndim": 1},
}


class PooledAgeHistogram(AgeHistogram):
    """An :class:`AgeHistogram` whose storage is one row of a pool matrix.

    ``counts`` is a row view of the pool's ``(memcgs, bins)`` matrix, so
    in-place updates (``+=``, ``[:] = 0``) — which is all the base class
    ever does — write straight through to the pool.  ``young_count``
    proxies one element of the pool's young-count vector.  ``copy()`` and
    ``diff()`` inherit from the base class and return plain detached
    :class:`AgeHistogram` objects, which is what every consumer (node
    agent, telemetry, invariants) expects.
    """

    def __init__(self, bins: AgeBins, counts: np.ndarray,
                 young: np.ndarray, row: int):
        self.bins = bins
        self.counts = counts
        self._young = young
        self._row = int(row)

    @property
    def young_count(self) -> int:
        return int(self._young[self._row])

    @young_count.setter
    def young_count(self, value: int) -> None:
        self._young[self._row] = value


class ColumnarMemCg(MemCg):
    """A memcg whose per-page arrays alias a :class:`MachinePagePool`.

    Constructed exactly like :class:`MemCg`; the owning machine then
    registers it with the pool, which replaces the private arrays with
    segment views.  All inherited behaviour is preserved bit-for-bit —
    the views cover the same slots the private arrays would.
    """

    #: Row in the pool's per-memcg matrices; assigned by the pool.
    _pool_row: int = -1
    #: The owning pool; assigned by :meth:`MachinePagePool.add`.
    _pool: Optional["MachinePagePool"] = None

    # The reclaim threshold and zswap gate are written by the node agent
    # once per control round but *read* by the pooled reclaim mask for
    # every page on the machine.  Property setters mirror them into the
    # pool's per-row encoded-threshold array so ``reclaim_pairs`` gathers
    # thresholds with one indexed load instead of a per-memcg Python walk.

    @property
    def cold_age_threshold(self) -> float:
        return self._cold_age_threshold

    @cold_age_threshold.setter
    def cold_age_threshold(self, value: float) -> None:
        self._cold_age_threshold = value
        if self._pool is not None:
            self._pool.refresh_row_threshold(self)

    @property
    def zswap_enabled(self) -> bool:
        return self._zswap_enabled

    @zswap_enabled.setter
    def zswap_enabled(self, value: bool) -> None:
        self._zswap_enabled = value
        if self._pool is not None:
            self._pool.refresh_row_threshold(self)

    def __getstate__(self):
        # The views alias pool storage: pickling them would ship detached
        # copies (and double the payload).  Drop them — the pool carries
        # the data, and ``Machine.__setstate__`` rebinds on arrival.
        state = self.__dict__.copy()
        for attr, _field in _VIEW_BINDINGS:
            state.pop(attr, None)
        state.pop("cold_age_histogram", None)
        state.pop("promotion_histogram", None)
        return state


class MachinePagePool:
    """Machine-wide columnar storage for every memcg's page state.

    Segments are contiguous and compacted on removal (higher segments
    slide down), so the pooled passes always sweep one dense ``[0, used)``
    prefix.  All stored per-slot data is position-independent —
    ``huge_group`` holds memcg-local ids, ``owner_row`` holds stable row
    ids — which is what makes the slide a plain memmove.

    Args:
        bins: the fleet-wide candidate-threshold grid.
        scan_period: the machine's kstaled period (uniform across memcgs).
    """

    def __init__(self, bins: AgeBins, scan_period: int):
        self.bins = bins
        self.scan_period = int(scan_period)
        self.used = 0
        self._cap = 0
        for name, dtype, fill in _PAGE_FIELDS:
            setattr(self, name, np.full(0, fill, dtype=dtype))

        nbins = len(bins)
        self._nbins = nbins
        self._row_cap = 0
        self._n_rows = 0
        self.row_base = np.zeros(0, dtype=np.int64)
        self.row_size = np.zeros(0, dtype=np.int64)
        self.cold_counts = np.zeros((0, nbins), dtype=np.int64)
        self.cold_young = np.zeros(0, dtype=np.int64)
        self.promo_counts = np.zeros((0, nbins), dtype=np.int64)
        self.promo_young = np.zeros(0, dtype=np.int64)
        #: Per-row reclaim threshold in scans, pre-encoded: ``_NEVER_SCANS``
        #: while zswap is disabled or the threshold is non-finite.  Kept in
        #: sync by the :class:`ColumnarMemCg` property setters.
        self.row_reclaim_thr = np.full(0, _NEVER_SCANS, dtype=np.int64)
        self.row_memcg: List[Optional[ColumnarMemCg]] = []
        self._free_rows: List[int] = []

        #: Age (in scans) -> histogram bin; shared by every segment since
        #: the scan period is a machine-level parameter.
        self._bin_lut = bins.bin_of_age(
            np.arange(MAX_PAGE_AGE_SCANS + 1, dtype=np.int64) * self.scan_period
        ).astype(np.int16)

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------

    def add(self, memcg: ColumnarMemCg) -> None:
        """Claim a segment + histogram row for a new memcg and bind views."""
        n = memcg.capacity_pages
        if self.used + n > self._cap:
            self._grow_pages(max(self._cap * 2, self.used + n, 4096))
        row = self._take_row()
        base = self.used
        self.used += n
        self.row_base[row] = base
        self.row_size[row] = n
        self.row_memcg[row] = memcg
        memcg._pool_row = row
        memcg._pool = self
        # Free slots already carry construction defaults; only ownership
        # and the histogram row need (re)setting.
        self.owner_row[base : base + n] = row
        self.cold_counts[row, :] = 0
        self.cold_young[row] = 0
        self.promo_counts[row, :] = 0
        self.promo_young[row] = 0
        self.bind(memcg)

    def remove(self, memcg: ColumnarMemCg) -> None:
        """Release a memcg's segment, compacting the pool behind it.

        The departing memcg keeps private *copies* of its final state, so
        late readers (job stats, tests) see a frozen snapshot rather than
        recycled pool slots.
        """
        row = memcg._pool_row
        base = int(self.row_base[row])
        size = int(self.row_size[row])
        for attr, _field in _VIEW_BINDINGS:
            setattr(memcg, attr, getattr(memcg, attr).copy())
        memcg.cold_age_histogram = memcg.cold_age_histogram.copy()
        memcg.promotion_histogram = memcg.promotion_histogram.copy()
        memcg._pool_row = -1
        memcg._pool = None

        tail = self.used - (base + size)
        if tail:
            for name, _dtype, _fill in _PAGE_FIELDS:
                arr = getattr(self, name)
                arr[base : base + tail] = arr[base + size : self.used].copy()
        new_used = self.used - size
        for name, _dtype, fill in _PAGE_FIELDS:
            getattr(self, name)[new_used : self.used] = fill
        self.used = new_used

        self.row_base[self.row_base > base] -= size
        self.row_base[row] = 0
        self.row_size[row] = 0
        self.row_reclaim_thr[row] = _NEVER_SCANS
        self.row_memcg[row] = None
        self._free_rows.append(row)
        self._rebind_from(base)

    def bind(self, memcg: ColumnarMemCg) -> None:
        """(Re)point one memcg's arrays and histograms at its segment."""
        row = memcg._pool_row
        base = int(self.row_base[row])
        end = base + int(self.row_size[row])
        for attr, field in _VIEW_BINDINGS:
            setattr(memcg, attr, getattr(self, field)[base:end])
        memcg.cold_age_histogram = PooledAgeHistogram(
            self.bins, self.cold_counts[row], self.cold_young, row
        )
        memcg.promotion_histogram = PooledAgeHistogram(
            self.bins, self.promo_counts[row], self.promo_young, row
        )
        self.refresh_row_threshold(memcg)

    def refresh_row_threshold(self, memcg: "ColumnarMemCg") -> None:
        """Re-encode one memcg's reclaim threshold into the row array.

        Encodes exactly the gate the scalar ``MemCg.reclaim_candidates``
        applies per call: disabled zswap or a non-finite threshold means
        "never reclaim"; otherwise the threshold in whole scans (ceil),
        clamped so the encoded value always fits the sentinel.
        """
        threshold = memcg._cold_age_threshold
        if not memcg._zswap_enabled or not math.isfinite(threshold):
            encoded = _NEVER_SCANS
        else:
            encoded = min(
                math.ceil(threshold / self.scan_period), _NEVER_SCANS
            )
        self.row_reclaim_thr[memcg._pool_row] = encoded

    def rebind_all(self) -> None:
        """Rebind every live memcg (after unpickling or storage growth)."""
        for memcg in self.row_memcg:
            if memcg is not None:
                self.bind(memcg)

    def _rebind_from(self, floor_base: int) -> None:
        for memcg in self.row_memcg:
            if memcg is not None and self.row_base[memcg._pool_row] >= floor_base:
                self.bind(memcg)

    def _take_row(self) -> int:
        if self._free_rows:
            self._free_rows.sort()
            return self._free_rows.pop(0)
        if self._n_rows == self._row_cap:
            self._grow_rows(max(self._row_cap * 2, 16))
        row = self._n_rows
        self._n_rows += 1
        self.row_memcg.append(None)
        return row

    def _grow_pages(self, new_cap: int) -> None:
        for name, dtype, fill in _PAGE_FIELDS:
            old = getattr(self, name)
            fresh = np.full(new_cap, fill, dtype=dtype)
            fresh[: self.used] = old[: self.used]
            setattr(self, name, fresh)
        self._cap = new_cap
        self.rebind_all()

    def _grow_rows(self, new_row_cap: int) -> None:
        n = self._n_rows
        nbins = self._nbins
        for name in ("row_base", "row_size", "cold_young", "promo_young"):
            fresh = np.zeros(new_row_cap, dtype=np.int64)
            fresh[:n] = getattr(self, name)[:n]
            setattr(self, name, fresh)
        fresh_thr = np.full(new_row_cap, _NEVER_SCANS, dtype=np.int64)
        fresh_thr[:n] = self.row_reclaim_thr[:n]
        self.row_reclaim_thr = fresh_thr
        for name in ("cold_counts", "promo_counts"):
            fresh = np.zeros((new_row_cap, nbins), dtype=np.int64)
            fresh[:n] = getattr(self, name)[:n]
            setattr(self, name, fresh)
        self._row_cap = new_row_cap
        self.rebind_all()

    # ------------------------------------------------------------------
    # Pooled accounting reductions (replace per-memcg Python sums)
    # ------------------------------------------------------------------

    def resident_pages(self) -> int:
        """Machine-wide resident pages (near + far), one pass."""
        return int(np.count_nonzero(self.resident[: self.used]))

    def near_pages(self) -> int:
        """Machine-wide pages held uncompressed in DRAM."""
        u = self.used
        return int(np.count_nonzero(
            self.resident[:u] & (self.state[:u] == PageState.NEAR)
        ))

    def far_pages(self) -> int:
        """Machine-wide pages held compressed in the zswap arena."""
        u = self.used
        return int(np.count_nonzero(
            self.resident[:u] & (self.state[:u] == PageState.FAR)
        ))

    def cold_pages(self, threshold_seconds: float) -> int:
        """Machine-wide resident pages idle at least ``threshold_seconds``."""
        u = self.used
        threshold_scans = int(np.ceil(threshold_seconds / self.scan_period))
        return int(np.count_nonzero(
            self.resident[:u] & (self.age_scans[:u] >= threshold_scans)
        ))

    # ------------------------------------------------------------------
    # Zero-copy telemetry export
    # ------------------------------------------------------------------

    def export_columns(
        self, rows: np.ndarray, min_cold_age_seconds: int
    ) -> Dict[str, np.ndarray]:
        """Materialize one export window's telemetry columns for ``rows``.

        The zero-copy half of the telemetry fast path: one fancy-index
        gather per histogram column (the gathers *are* the copies — the
        returned arrays never alias live pool storage) plus a single
        cumulative-sum sweep over the rows' covering page span for the
        per-row resident counts.  No per-job Python loop runs here; the
        exporter packs the result into a
        :class:`~repro.model.trace.TelemetryBlock` as-is.

        Args:
            rows: pool row ordinals of the memcgs to export, in export
                order (one output row each).
            min_cold_age_seconds: the SLO's working-set window; the
                working-set column replays
                :func:`repro.core.slo.working_set_pages` per row.

        Returns:
            Columns keyed ``promotion_counts``/``promotion_young``
            (cumulative, since pool start), ``cold_counts``/``cold_young``
            (current snapshot), ``working_set_pages``, and
            ``resident_pages`` — int64 throughout, bit-identical to the
            per-memcg scalar reads.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n = rows.size
        nbins = self._nbins
        if n == 0:
            return {
                "promotion_counts": np.zeros((0, nbins), dtype=np.int64),
                "promotion_young": np.zeros(0, dtype=np.int64),
                "cold_counts": np.zeros((0, nbins), dtype=np.int64),
                "cold_young": np.zeros(0, dtype=np.int64),
                "working_set_pages": np.zeros(0, dtype=np.int64),
                "resident_pages": np.zeros(0, dtype=np.int64),
            }
        cold_counts = self.cold_counts[rows]
        cold_young = self.cold_young[rows]
        # Per-row resident counts: gather exactly the rows' page slots
        # (segments are contiguous; np.repeat builds the concatenated
        # ranges) and reduce each segment with one prefix sum — the cost
        # is O(pages owned by ``rows``), matching the scalar per-memcg
        # ``count_nonzero`` walk.
        bases = self.row_base[rows]
        sizes = self.row_size[rows]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        total = int(ends[-1]) if n else 0
        slots = (
            np.repeat(bases - starts, sizes)
            + np.arange(total, dtype=np.int64)
        )
        prefix = np.concatenate([
            np.zeros(1, dtype=np.int64),
            np.cumsum(self.resident[slots], dtype=np.int64),
        ])
        resident = prefix[ends] - prefix[starts]
        # Working set: young pages plus every bin strictly below the
        # window (the vectorized twin of ``slo.working_set_pages``).
        idx = bisect_left(self.bins.thresholds, min_cold_age_seconds)
        working_set = cold_young + cold_counts[:, :idx].sum(axis=1)
        return {
            "promotion_counts": self.promo_counts[rows],
            "promotion_young": self.promo_young[rows],
            "cold_counts": cold_counts,
            "cold_young": cold_young,
            "working_set_pages": working_set,
            "resident_pages": resident,
        }

    # ------------------------------------------------------------------
    # Pooled kstaled scan
    # ------------------------------------------------------------------

    def scan_all(self, memcgs: Iterable[MemCg]) -> int:
        """One kstaled pass over every segment in a single machine sweep.

        Replays ``MemCg.scan_update`` slot-for-slot: huge-bit propagation,
        promotion-histogram accounting from pre-reset ages, age reset /
        saturating increment, two-list LRU maintenance, dirty-page payload
        resampling (per memcg, with that memcg's own RNG, in iteration
        order — the draw sequences match the scalar kernel exactly), and
        the incremental cold-age histogram fold.

        Args:
            memcgs: the machine's memcgs in scan order.

        Returns:
            Total resident pages examined (the kstaled CPU-cost input).
        """
        memcg_list = list(memcgs)
        if invariants_enabled():
            verify_column_contracts(self, COLUMN_CONTRACTS, where="scan_all")
        u = self.used
        if u == 0:
            return 0
        res = self.resident[:u]
        accessed = self.accessed[:u]
        age = self.age_scans[:u]
        state = self.state[:u]
        owner = self.owner_row[:u]

        self._propagate_huge_bits_pooled(u, res)

        acc = res & accessed
        idle = res & ~accessed

        # Promotion histograms for all memcgs: bincount keyed by
        # (row, bin) over the accessed pages' pre-reset ages.
        acc_idx = np.flatnonzero(acc)
        if acc_idx.size:
            rows = owner[acc_idx].astype(np.int64)
            ages_acc = np.minimum(age[acc_idx], MAX_PAGE_AGE_SCANS)
            bins_idx = self._bin_lut[ages_acc].astype(np.int64)
            hot = bins_idx >= 0
            if hot.any():
                flat = self.promo_counts.reshape(-1)
                flat += np.bincount(
                    rows[hot] * self._nbins + bins_idx[hot],
                    minlength=flat.size,
                )
            if not hot.all():
                self.promo_young += np.bincount(
                    rows[~hot], minlength=self._row_cap
                )
            # Mirror the scalar kernel's per-memcg promotion-event
            # counter (one bump per accessed resident page) so the node
            # agent's quiet-round fast path sees identical values under
            # either backend.
            per_row = np.bincount(rows, minlength=self._row_cap)
            for r in np.flatnonzero(per_row):
                self.row_memcg[r].promo_hist_events += int(per_row[r])

        age[acc] = 0
        age[idle] = np.minimum(age[idle] + 1, MAX_PAGE_AGE_SCANS)
        lru = self.lru_active[:u]
        lru[acc] = True
        lru[idle] = False
        accessed[res] = False

        # Dirtied NEAR pages shed their incompressible mark and resample
        # payload content.  The sampling itself must stay per memcg: each
        # memcg owns an independent RNG stream and the scalar kernel draws
        # exactly n_dirty values from it.
        dirty_idx = np.flatnonzero(res & self.dirtied[:u] & (state == PageState.NEAR))
        if dirty_idx.size:
            self.incompressible[dirty_idx] = False
            payload = self.payload_bytes[:u]
            for memcg in memcg_list:
                seg_row = memcg._pool_row
                seg_base = int(self.row_base[seg_row])
                lo = int(np.searchsorted(dirty_idx, seg_base))
                hi = int(np.searchsorted(
                    dirty_idx, seg_base + int(self.row_size[seg_row])
                ))
                if lo == hi:
                    continue
                payload[dirty_idx[lo:hi]] = (
                    memcg.content_profile.sample_payload_bytes(
                        hi - lo, memcg._rng
                    )
                )
                memcg.invalidate_reclaim_cache()
        self.dirtied[:u][res] = False

        self._update_cold_histograms_pooled(u, res, age, owner)

        if invariants_enabled():
            for memcg in memcg_list:
                check_memcg_histogram(memcg)
        return int(np.count_nonzero(res))

    def _propagate_huge_bits_pooled(self, u: int, res: np.ndarray) -> None:
        """Share accessed/dirty bits within every huge mapping at once.

        Group ids are memcg-local; adding the owner segment's base yields
        pool-global ids that cannot collide across memcgs, so one
        aggregate pass covers every mapping on the machine.
        """
        hg = self.huge_group[:u]
        hp = np.flatnonzero(res & (hg >= 0))
        if hp.size == 0:
            return
        groups = hg[hp] + self.row_base[self.owner_row[hp]]
        for bits in (self.accessed[:u], self.dirtied[:u]):
            aggregate = np.zeros(u, dtype=bool)
            np.logical_or.at(aggregate, groups, bits[hp])
            bits[hp] = aggregate[groups]

    def _update_cold_histograms_pooled(
        self, u: int, res: np.ndarray, age: np.ndarray, owner: np.ndarray
    ) -> None:
        """Incremental cold-age fold for all memcgs: the pooled twin of
        ``MemCg._update_cold_histogram`` (same changed-bin detection, same
        ±1 contributions, summed per (row, bin) by bincount)."""
        new_bins = np.full(u, _HIST_NO_PAGE, dtype=np.int16)
        new_bins[res] = self._bin_lut[np.minimum(age[res], MAX_PAGE_AGE_SCANS)]
        hist_bin = self.hist_bin[:u]
        changed = np.flatnonzero(new_bins != hist_bin)
        if changed.size == 0:
            return
        rows = owner[changed].astype(np.int64)
        old = hist_bin[changed].astype(np.int64)
        new = new_bins[changed].astype(np.int64)
        flat = self.cold_counts.reshape(-1)
        nbins = self._nbins
        old_binned = old >= 0
        if old_binned.any():
            flat -= np.bincount(
                rows[old_binned] * nbins + old[old_binned], minlength=flat.size
            )
        old_young = old == _HIST_YOUNG
        if old_young.any():
            self.cold_young -= np.bincount(
                rows[old_young], minlength=self._row_cap
            )
        new_binned = new >= 0
        if new_binned.any():
            flat += np.bincount(
                rows[new_binned] * nbins + new[new_binned], minlength=flat.size
            )
        new_young = new == _HIST_YOUNG
        if new_young.any():
            self.cold_young += np.bincount(
                rows[new_young], minlength=self._row_cap
            )
        hist_bin[changed] = new_bins[changed]

    # ------------------------------------------------------------------
    # Pooled kreclaimd candidate evaluation
    # ------------------------------------------------------------------

    def reclaim_pairs(
        self, memcgs: Iterable[MemCg]
    ) -> List[Tuple[MemCg, np.ndarray]]:
        """Reclaim candidates for every memcg from one machine-wide mask.

        Builds the eligibility mask (resident, NEAR, evictable,
        compressible, age at or beyond the *owning memcg's* threshold) in
        a single pass — per-row thresholds are pre-encoded in
        ``row_reclaim_thr`` (maintained by the memcg property setters, so
        no per-memcg gather loop runs here) — then groups the candidate
        list back into memcg-local indices along segment boundaries.
        Memcgs with zswap disabled or a non-finite threshold carry the
        never-matches sentinel and yield nothing, matching
        ``MemCg.reclaim_candidates``.

        Returns:
            ``(memcg, local_candidates)`` pairs in iteration order,
            candidates ascending — byte-identical to the scalar walk.
        """
        u = self.used
        if u == 0:
            return []
        owner = self.owner_row[:u]
        mask = (
            self.resident[:u]
            & (self.state[:u] == PageState.NEAR)
            & ~self.unevictable[:u]
            & ~self.incompressible[:u]
            & (self.age_scans[:u] >= self.row_reclaim_thr[owner])
        )
        cand = np.flatnonzero(mask)
        if cand.size == 0:
            return []
        # Segments are contiguous, so candidates sorted by slot are also
        # grouped by owning row; one boundary scan replaces the two
        # searchsorted calls per memcg.
        rows = owner[cand]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        bounds = np.append(starts[1:], rows.size)
        spans = {
            int(rows[s]): (int(s), int(e)) for s, e in zip(starts, bounds)
        }
        pairs: List[Tuple[MemCg, np.ndarray]] = []
        for memcg in memcgs:
            span = spans.get(memcg._pool_row)
            if span is None:
                continue
            lo, hi = span
            pairs.append(
                (memcg, cand[lo:hi] - int(self.row_base[memcg._pool_row]))
            )
        return pairs
