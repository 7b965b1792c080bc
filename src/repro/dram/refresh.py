"""Refresh counter wirings, Fast-Refresh slot classes and Refresh-Skipping.

The DRAM's internal refresh counter increments once per REFRESH command and
addresses the rows to refresh. The paper's Sec. 4.3 studies how the counter
bits are wired to the row-address bits:

- **K to K** wiring: counter bit B_k drives row bit R_k — the counter value
  *is* the row address, so the clone rows of an MCR are refreshed on
  consecutive commands and then not again for almost the whole window
  (maximum per-MCR interval 56 ms for 2x, 40 ms for 4x with a 64 ms
  window — paper Fig. 8(b)).
- **K to N-1-K** wiring: counter bit B_k drives row bit R_(N-1-k) — a bit
  reversal, so the row-address LSBs (the clone index) change *last* and the
  K clone passes split the window into K equal parts (uniform 64/K ms
  intervals — paper Fig. 8(c)).

With the good wiring, the window divides into K uniform *clone passes*.
Refresh-Skipping (mode M/Kx) keeps only M of the K passes for MCR rows,
spaced uniformly; the kept/skipped pattern per MCR is the paper's Fig. 9.

For the system simulator we also provide a rate-preserving *spread* plan:
simulations cover only a slice of the 64 ms window, and the exact wiring
schedule clusters each clone pass into a contiguous quarter/half of the
window, which would bias short runs. The spread plan emits the same per-
window mix of {normal, fast, skipped} slots, interleaved deterministically
(largest-remainder), so a run of any length sees representative refresh
behaviour. Both plans expose identical per-window aggregates (tested).

The spread schedule depends only on the per-window slot counts, so
:func:`spread_schedule` is memoized by that mixture and shared by every
plan and every batched lane that needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from functools import lru_cache

from repro.dram.config import REFRESH_SLOTS_PER_WINDOW, DRAMGeometry
from repro.dram.mcr import MCRGenerator, MCRModeConfig, RowClass
from repro.utils.bitops import bit_reverse, log2_int


class WiringMethod(Enum):
    """How refresh-counter bits drive row-address bits (paper Fig. 8)."""

    K_TO_K = auto()
    K_TO_N_MINUS_1_K = auto()


def refresh_row_address(counter: int, n_bits: int, wiring: WiringMethod) -> int:
    """Row address produced by a counter value under a wiring method."""
    if not 0 <= counter < (1 << n_bits):
        raise ValueError(f"counter {counter} does not fit in {n_bits} bits")
    if wiring is WiringMethod.K_TO_K:
        return counter
    return bit_reverse(counter, n_bits)


def refresh_address_sequence(
    n_bits: int, wiring: WiringMethod
) -> list[int]:
    """The full per-window sequence of refresh row addresses.

    Regenerates the tables of paper Fig. 8(b)/(c) for small ``n_bits``.
    """
    return [refresh_row_address(c, n_bits, wiring) for c in range(1 << n_bits)]


def max_refresh_interval_slots(rows: list[int], sequence: list[int]) -> int:
    """Worst gap (in refresh slots) between visits to any row in ``rows``.

    The sequence repeats cyclically, so the gap wraps around the window.
    With 8 slots per window and a 64 ms window, one slot is 8 ms — this is
    how the paper quotes 56 ms / 32 ms etc. in Fig. 8.
    """
    visits = sorted(i for i, row in enumerate(sequence) if row in set(rows))
    if not visits:
        raise ValueError("rows never refreshed by the sequence")
    if len(visits) == 1:
        return len(sequence)
    gaps = [b - a for a, b in zip(visits, visits[1:])]
    gaps.append(len(sequence) - visits[-1] + visits[0])
    return max(gaps)


def kept_clone_passes(k: int, m: int) -> set[int]:
    """Time positions (0..K-1) of the clone passes that stay issued.

    Keeping every (K/M)-th pass spaces the M surviving refreshes uniformly,
    which is what justifies the 64/M ms per-cell interval (and hence the
    mode's tRAS) — paper Fig. 9.
    """
    if not 1 <= m <= k or k % m != 0:
        raise ValueError("require 1 <= m <= k with m | k")
    step = k // m
    return {p for p in range(k) if p % step == 0}


class RefreshSlotKind(Enum):
    """What one refresh slot costs."""

    NORMAL = auto()  # full tRFC, normal rows
    FAST = auto()  # reduced tRFC (Fast-Refresh), primary MCR rows
    FAST_ALT = auto()  # reduced tRFC, secondary (combined-mode) MCR rows
    SKIPPED = auto()  # no command issued (Refresh-Skipping)


#: Dense slot-kind encoding used by :func:`spread_schedule`: the index of
#: each :class:`RefreshSlotKind` in declaration order.
KIND_NORMAL, KIND_FAST, KIND_FAST_ALT, KIND_SKIPPED = 0, 1, 2, 3
_KINDS = tuple(RefreshSlotKind)

#: Dense slot kind -> RowClass value whose tRFC applies to it (mirrors
#: ``RefreshScheduler.trfc_class``; SKIPPED slots issue no command).
KIND_TO_TRFC_CLASS = (RowClass.NORMAL.value, RowClass.MCR.value, RowClass.MCR_ALT.value)

#: Distinct slot-count mixtures :func:`spread_schedule` keeps (8 KB each).
SPREAD_MEMO_SIZE = 128


@dataclass(frozen=True, slots=True)
class RefreshSlot:
    """One refresh-command slot of the 8192-slot window."""

    index: int
    kind: RefreshSlotKind
    rows: tuple[int, ...]  # rows refreshed per bank (empty when skipped)


class RefreshPlan:
    """Classify the refresh slots of a window for one MCR configuration.

    Two access styles:

    - :meth:`exact_slot` follows the real counter wiring — used to verify
      wiring properties and for long simulations;
    - :meth:`spread_kind` returns the rate-preserving interleaved schedule
      the system simulator uses (see module docstring).
    """

    def __init__(
        self,
        geometry: DRAMGeometry,
        mode: MCRModeConfig,
        wiring: WiringMethod = WiringMethod.K_TO_N_MINUS_1_K,
    ) -> None:
        self.geometry = geometry
        self.mode = mode
        self.wiring = wiring
        self.generator = MCRGenerator(geometry, mode)
        self.slots_per_window = REFRESH_SLOTS_PER_WINDOW
        self.rows_per_slot = geometry.rows_per_refresh
        self._kept = {
            RowClass.MCR: kept_clone_passes(mode.k, mode.m)
            if mode.enabled
            else {0},
            RowClass.MCR_ALT: kept_clone_passes(mode.alt_k, mode.alt_m)
            if mode.has_alt_region
            else {0},
        }
        self._counts = window_counts(mode)
        self._spread = spread_schedule(self._counts)

    # ------------------------------------------------------------------
    # Exact (wiring-faithful) schedule
    # ------------------------------------------------------------------

    def exact_slot(self, index: int) -> RefreshSlot:
        """The slot at window position ``index`` under the real wiring."""
        if index < 0:
            raise ValueError("index must be non-negative")
        pos = index % self.slots_per_window
        n_bits = self.geometry.row_bits
        first_counter = pos * self.rows_per_slot
        rows = tuple(
            refresh_row_address(first_counter + i, n_bits, self.wiring)
            for i in range(self.rows_per_slot)
        )
        kind = self._classify_rows(rows)
        kept_rows = rows if kind is not RefreshSlotKind.SKIPPED else ()
        return RefreshSlot(index=pos, kind=kind, rows=kept_rows)

    def _classify_rows(self, rows: tuple[int, ...]) -> RefreshSlotKind:
        gen = self.generator
        mech = self.mode.mechanisms
        classes = {gen.row_class(r) for r in rows}
        if classes == {RowClass.NORMAL} or len(classes) > 1:
            # Mixed slots only arise under the poor wiring; they must run
            # at the slower (normal) rate and cannot be skipped.
            return RefreshSlotKind.NORMAL
        row_class = classes.pop()
        k = self.mode.k_of(row_class)
        m = self.mode.m if row_class is RowClass.MCR else self.mode.alt_m
        if mech.refresh_skipping and m < k:
            # Under the bit-reversed wiring every row of the slot shares a
            # clone index; its time position within the window decides the
            # skip (see kept_clone_passes).
            clone = gen.clone_index(rows[0])
            position = bit_reverse(clone, log2_int(k))
            if position not in self._kept[row_class]:
                return RefreshSlotKind.SKIPPED
        if not mech.fast_refresh:
            return RefreshSlotKind.NORMAL
        return (
            RefreshSlotKind.FAST
            if row_class is RowClass.MCR
            else RefreshSlotKind.FAST_ALT
        )

    # ------------------------------------------------------------------
    # Rate-preserving spread schedule (simulator default)
    # ------------------------------------------------------------------

    def window_counts(self) -> dict[RefreshSlotKind, int]:
        """Slots of each kind per 8192-slot window."""
        return dict(zip(_KINDS, self._counts))

    def spread_kind(self, index: int) -> RefreshSlotKind:
        """Slot kind at position ``index`` of the spread schedule."""
        if index < 0:
            raise ValueError("index must be non-negative")
        return _KINDS[self._spread[index % self.slots_per_window]]

    def issued_fraction(self) -> float:
        """Fraction of refresh commands actually issued (1 - skip rate)."""
        return 1.0 - self._counts[KIND_SKIPPED] / self.slots_per_window


def window_counts(mode: MCRModeConfig) -> tuple[int, int, int, int]:
    """Slots of each dense kind per 8192-slot window, computed analytically
    (verified against the exact wiring schedule by the tests).

    Each MCR region covers its fraction of every sub-array, and the
    counter walks every row once per window, so that fraction of slots
    targets the region's rows; of those, a fraction (1 - M/K) is skipped
    when Refresh-Skipping is on, and the rest are fast when Fast-Refresh
    is on.
    """
    total = REFRESH_SLOTS_PER_WINDOW
    counts = [total, 0, 0, 0]
    if not mode.enabled:
        return tuple(counts)
    regions = [(KIND_FAST, mode.region_fraction, mode.k, mode.m)]
    if mode.has_alt_region:
        regions.append(
            (KIND_FAST_ALT, mode.alt_region_fraction, mode.alt_k, mode.alt_m)
        )
    mechanisms = mode.mechanisms
    for fast_kind, fraction, k, m in regions:
        region_slots = round(total * fraction)
        skipped = region_slots * (k - m) // k if mechanisms.refresh_skipping else 0
        issued = region_slots - skipped
        fast = issued if mechanisms.fast_refresh else 0
        counts[KIND_SKIPPED] += skipped
        counts[fast_kind] += fast
        counts[KIND_NORMAL] -= skipped + fast
    return tuple(counts)


@lru_cache(maxsize=SPREAD_MEMO_SIZE)
def spread_schedule(counts: tuple[int, int, int, int]) -> bytes:
    """Largest-remainder interleave of one window's slot mix, as dense kinds.

    ``counts`` is a :func:`window_counts` tuple. The result is a
    deterministic sequence in which, after any prefix of length n, each
    kind has appeared at most the ceiling of its fair share
    ``n * count / 8192`` and at least one less than its floor (exactly
    floor/ceil for the paper's modes) — so arbitrarily short simulations
    see representative refresh costs. Each round accrues credit in kind
    order and emits the kind furthest ahead of its emissions among those
    below their cap, the first such kind winning ties. Memoized by
    mixture: the schedule is immutable and shared.
    """
    total = REFRESH_SLOTS_PER_WINDOW
    n0, n1, n2, n3 = counts
    q0, q1, q2, q3 = n0 / total, n1 / total, n2 / total, n3 / total
    c0 = c1 = c2 = c3 = 0.0
    e0 = e1 = e2 = e3 = 0
    schedule = bytearray()
    append = schedule.append
    for _ in range(total):
        c0 += q0
        c1 += q1
        c2 += q2
        c3 += q3
        best = -1
        best_key = 0.0
        if e0 < n0:
            best = KIND_NORMAL
            best_key = c0 - e0
        if e1 < n1:
            key = c1 - e1
            if best < 0 or key > best_key:
                best = KIND_FAST
                best_key = key
        if e2 < n2:
            key = c2 - e2
            if best < 0 or key > best_key:
                best = KIND_FAST_ALT
                best_key = key
        if e3 < n3:
            key = c3 - e3
            if best < 0 or key > best_key:
                best = KIND_SKIPPED
                best_key = key
        if best == KIND_NORMAL:
            e0 += 1
        elif best == KIND_FAST:
            e1 += 1
        elif best == KIND_FAST_ALT:
            e2 += 1
        else:
            e3 += 1
        append(best)
    return bytes(schedule)
