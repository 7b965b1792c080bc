"""MCR mode configuration and the peripheral MCR generator.

The MCR generator (paper Sec. 4.2) sits between the address buffer and the
internal address lines. On each incoming row address it:

1. detects whether the row lies in the MCR region — a 1-2 bit compare on
   the sub-array-local MSBs, since MCRs are allocated to the rows near the
   sense amplifiers of each sub-array (paper Fig. 6);
2. if so, forces the log2(K) LSBs of *both* the true (A) and complement
   (/A) internal address lines to logic high, which makes every wordline
   whose decoder inputs differ only in those LSBs fire — i.e. all K clone
   rows switch together.

We model the true/complement decoding trick faithfully
(:meth:`MCRGenerator.asserted_wordlines`) so tests can confirm that the
forced-LSB encoding selects exactly the K clone rows and nothing else.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum, auto

from repro.dram.config import DRAMGeometry
from repro.utils.bitops import clear_bits, extract_bits, log2_int, set_bits

#: MCR sizes for which the paper publishes timing constraints.
SUPPORTED_K: tuple[int, ...] = (1, 2, 4)


class RowClass(Enum):
    """Timing class of a row.

    ``MCR`` is the primary MCR region; ``MCR_ALT`` is the secondary region
    of a combined configuration (paper Sec. 4.4: "Combination of 2x and
    4x MCR" — more frequently accessed pages in 4x MCRs, less frequent in
    2x MCRs). ``CHARGED`` is a dynamic class assigned at activation time
    by mechanism plugins (``repro.mechanisms``) to rows whose cells are
    known to still hold a high charge level — e.g. ChargeCache's
    recently-closed rows; no static address maps to it.
    """

    NORMAL = auto()
    MCR = auto()
    MCR_ALT = auto()
    CHARGED = auto()


@dataclass(frozen=True, slots=True)
class MechanismSet:
    """Which of the paper's latency mechanisms are enabled.

    Used for the Fig. 17 ablation. ``refresh_skipping`` without
    ``fast_refresh`` reproduces the paper's "case 4": skipped commands buy
    idle slots but the issued refreshes still run at normal tRFC.
    """

    early_access: bool = True
    early_precharge: bool = True
    fast_refresh: bool = True
    refresh_skipping: bool = True

    @classmethod
    def all_on(cls) -> "MechanismSet":
        return cls()

    @classmethod
    def access_only(cls) -> "MechanismSet":
        """Early-Access + Early-Precharge only (Fig. 11/12/14/15 protocol)."""
        return cls(fast_refresh=False, refresh_skipping=False)


@dataclass(frozen=True, slots=True)
class MCRModeConfig:
    """An MCR-mode configuration, the paper's mode [M/Kx/L%reg].

    Attributes:
        k: Rows per MCR (1 disables MCR entirely).
        m: REFRESH operations kept per MCR per 64 ms window (1 <= m <= k).
            ``m < k`` is Refresh-Skipping.
        region_fraction: L% — fraction of each sub-array's rows that are
            MCRs (the rows nearest the sense amplifiers).
        mechanisms: Which latency mechanisms are active.
        alt_k / alt_m / alt_region_fraction: Optional secondary MCR region
            (paper Sec. 4.4's "Combination of 2x and 4x MCR"): the rows
            just past the primary region form ``alt_k``x MCRs. Disabled by
            default.
    """

    k: int = 1
    m: int = 1
    region_fraction: float = 0.0
    mechanisms: MechanismSet = field(default_factory=MechanismSet)
    alt_k: int = 1
    alt_m: int = 1
    alt_region_fraction: float = 0.0

    def __post_init__(self) -> None:
        for name, kk, mm, region in (
            ("", self.k, self.m, self.region_fraction),
            ("alt_", self.alt_k, self.alt_m, self.alt_region_fraction),
        ):
            if kk not in SUPPORTED_K:
                raise ValueError(f"{name}k must be one of {SUPPORTED_K}, got {kk}")
            if not 1 <= mm <= kk:
                raise ValueError(f"require 1 <= {name}m <= {name}k")
            if kk > 1 and kk % mm != 0:
                raise ValueError(
                    f"{name}m must divide {name}k so skipped refreshes spread uniformly"
                )
            if not 0.0 <= region <= 1.0:
                raise ValueError(f"{name}region_fraction must be within [0, 1]")
            if kk == 1 and region > 0.0:
                raise ValueError(f"a 1x {name}mode has no MCR region")
        if self.region_fraction + self.alt_region_fraction > 1.0 + 1e-12:
            raise ValueError("combined MCR regions exceed the sub-array")
        if self.alt_region_fraction > 0.0 and self.region_fraction == 0.0:
            raise ValueError("a secondary region requires a primary region")

    @classmethod
    def off(cls) -> "MCRModeConfig":
        """Conventional DRAM: MCR-mode disabled."""
        return cls(k=1, m=1, region_fraction=0.0)

    @classmethod
    def combined(
        cls,
        k: int = 4,
        alt_k: int = 2,
        region_fraction: float = 0.25,
        alt_region_fraction: float = 0.5,
        m: int | None = None,
        alt_m: int | None = None,
        mechanisms: MechanismSet | None = None,
    ) -> "MCRModeConfig":
        """The paper's combined configuration: Kx MCRs nearest the sense
        amplifiers for the hottest pages, alt-Kx MCRs behind them."""
        return cls(
            k=k,
            m=m if m is not None else k,
            region_fraction=region_fraction,
            mechanisms=mechanisms if mechanisms is not None else MechanismSet(),
            alt_k=alt_k,
            alt_m=alt_m if alt_m is not None else alt_k,
            alt_region_fraction=alt_region_fraction,
        )

    @property
    def enabled(self) -> bool:
        return self.k > 1 and self.region_fraction > 0.0

    @property
    def has_alt_region(self) -> bool:
        return self.alt_k > 1 and self.alt_region_fraction > 0.0

    @property
    def clone_bits(self) -> int:
        """log2(K): how many row-address LSBs the generator forces high."""
        return log2_int(self.k)

    def k_of(self, row_class: RowClass) -> int:
        """Rows per MCR for a row class (1 for normal rows)."""
        if row_class is RowClass.MCR:
            return self.k
        if row_class is RowClass.MCR_ALT:
            return self.alt_k
        return 1

    def effective_m_of(self, row_class: RowClass) -> int:
        """Refreshes per window for a class (see :attr:`effective_m`)."""
        if row_class is RowClass.MCR:
            return self.effective_m
        if row_class is RowClass.MCR_ALT:
            return (
                self.alt_m if self.mechanisms.refresh_skipping else self.alt_k
            )
        return 1

    @property
    def effective_m(self) -> int:
        """Refreshes per window actually experienced by each MCR cell.

        With Refresh-Skipping disabled every clone pass is issued, so each
        cell is rewritten K times per window regardless of the configured
        M; the Early-Precharge restore target (and hence tRAS) follows
        this effective value.
        """
        return self.m if self.mechanisms.refresh_skipping else self.k

    def label(self) -> str:
        """Human-readable mode label, e.g. ``[2/4x/75%reg]``."""
        if not self.enabled:
            return "[off]"
        pct = round(self.region_fraction * 100)
        label = f"[{self.m}/{self.k}x/{pct}%reg]"
        if self.has_alt_region:
            alt_pct = round(self.alt_region_fraction * 100)
            label += f"+[{self.alt_m}/{self.alt_k}x/{alt_pct}%reg]"
        return label


class MCRGenerator:
    """The peripheral address-path logic of MCR-DRAM.

    Args:
        geometry: Device geometry (supplies sub-array height and row bits).
        mode: Active MCR-mode configuration.
    """

    def __init__(self, geometry: DRAMGeometry, mode: MCRModeConfig) -> None:
        self.geometry = geometry
        self.mode = mode
        self._local_bits = log2_int(geometry.rows_per_subarray)
        # The region layout: every other view of it (the row classifier,
        # the row sequences the page allocators fill) derives from these
        # two sub-array-local indices.
        #: First sub-array-local row index of the (primary) MCR region.
        #: For L in {100, 75, 50, 25}% this lands on a 1-2 bit MSB
        #: compare, exactly the cheap detector the paper describes.
        self.region_start = round(
            geometry.rows_per_subarray * (1.0 - mode.region_fraction)
        )
        #: First local index of the secondary (alt) region, which sits
        #: just below the primary one (``region_start`` when there is
        #: none: its fraction is then 0).
        self.alt_region_start = round(
            geometry.rows_per_subarray
            * (1.0 - mode.region_fraction - mode.alt_region_fraction)
        )

    def local_index(self, row: int) -> int:
        """Sub-array-local index of a row (its low log2(512) bits)."""
        self._check_row(row)
        return extract_bits(row, 0, self._local_bits)

    def row_class(self, row: int) -> RowClass:
        """The controller-side comparator: which timing class is this row?"""
        if not self.mode.enabled:
            return RowClass.NORMAL
        local = self.local_index(row)
        if local >= self.region_start:
            return RowClass.MCR
        if self.mode.has_alt_region and local >= self.alt_region_start:
            return RowClass.MCR_ALT
        return RowClass.NORMAL

    def is_mcr_row(self, row: int) -> bool:
        """MCR detector: does this row belong to any MCR?"""
        return self.row_class(row) is not RowClass.NORMAL

    def _rows(self, start: int, stop: int, step: int = 1) -> "SubarrayRows":
        return SubarrayRows(
            range(start, stop, step),
            self.geometry.rows_per_subarray,
            self.geometry.subarrays_per_bank,
        )

    # A mode that is off has no region (``region_start`` is the sub-array
    # height), and one without a secondary region has ``alt_region_start
    # == region_start``, so these views need no special cases.

    def base_rows(self) -> "SubarrayRows":
        """Base rows (clone LSBs zero) of the primary region's MCRs,
        ascending: the rows a page allocator hands out for Kx pages."""
        return self._rows(
            self.region_start, self.geometry.rows_per_subarray, self.mode.k
        )

    def alt_base_rows(self) -> "SubarrayRows":
        """Base rows of the secondary (combined-mode) region's MCRs."""
        return self._rows(self.alt_region_start, self.region_start, self.mode.alt_k)

    def region_rows(self) -> "SubarrayRows":
        """Every row of the primary region, clones included."""
        return self._rows(self.region_start, self.geometry.rows_per_subarray)

    def normal_rows(self) -> "SubarrayRows":
        """Every row :meth:`row_class` calls ``NORMAL``, ascending."""
        return self._rows(0, self.alt_region_start)

    def _clone_bits_of(self, row: int) -> int:
        return log2_int(self.mode.k_of(self.row_class(row)))

    def mcr_address(self, row: int) -> int:
        """Address changer: force the log2(K) LSBs high for MCR rows.

        For a normal row the address passes through unchanged.
        """
        bits = self._clone_bits_of(row)
        if bits == 0:
            return row
        return set_bits(row, 0, bits)

    def clone_rows(self, row: int) -> list[int]:
        """All rows that turn on when ``row`` is activated."""
        bits = self._clone_bits_of(row)
        if bits == 0:
            return [row]
        base = clear_bits(row, 0, bits)
        return [base + i for i in range(1 << bits)]

    def base_row(self, row: int) -> int:
        """First (page-allocatable) row of the MCR containing ``row``."""
        return clear_bits(row, 0, self._clone_bits_of(row))

    def clone_index(self, row: int) -> int:
        """Position of ``row`` within its MCR (0 for normal rows)."""
        return extract_bits(row, 0, self._clone_bits_of(row))

    def internal_address_lines(self, row: int) -> tuple[int, int]:
        """Model the true/complement internal address buses (A, /A).

        Returns bit masks over the row-address width: bit m of ``a`` is the
        level of line A_m, bit m of ``a_bar`` the level of /A_m. For a
        normal row, /A is the complement of A; for an MCR row both are
        forced high on the clone LSBs (paper Fig. 7).
        """
        self._check_row(row)
        width = self.geometry.row_bits
        a = row
        a_bar = ~row & ((1 << width) - 1)
        bits = self._clone_bits_of(row)
        if bits:
            a = set_bits(a, 0, bits)
            a_bar = set_bits(a_bar, 0, bits)
        return a, a_bar

    def asserted_wordlines(self, row: int) -> list[int]:
        """Which wordlines fire given the internal address lines.

        Wordline w is driven high iff for every bit position m the line it
        is wired to (A_m if bit m of w is 1, else /A_m) is high. This is
        the physical decoder of paper Fig. 7(b); tests assert it equals
        :meth:`clone_rows`.
        """
        a, a_bar = self.internal_address_lines(row)
        width = self.geometry.row_bits
        # A wordline fires iff (w & ~a) == 0 and (~w & ~a_bar) == 0, i.e.
        # every 1-bit of w has A high and every 0-bit has /A high. Rather
        # than scan all 2^width wordlines, enumerate the free positions:
        # bits where both A and /A are high can be either value.
        free_mask = a & a_bar
        fixed_value = a & ~free_mask
        # Positions where neither line is high would match no wordline.
        if (a | a_bar) != (1 << width) - 1:
            return []
        free_positions = [i for i in range(width) if (free_mask >> i) & 1]
        wordlines = []
        for combo in range(1 << len(free_positions)):
            w = fixed_value
            for j, pos in enumerate(free_positions):
                if (combo >> j) & 1:
                    w |= 1 << pos
            wordlines.append(w)
        return sorted(wordlines)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.geometry.rows_per_bank:
            raise ValueError(
                f"row {row} out of range [0, {self.geometry.rows_per_bank})"
            )


class SubarrayRows(Sequence):
    """The rows at local indices ``local`` of every sub-array of a bank.

    An ascending, lazily indexed sequence: its length is computed from
    the layout, and iterating it yields only as many rows as the
    consumer takes, so zipping a short list of pages against it costs
    O(pages), not O(rows per bank).
    """

    __slots__ = ("_local", "_rows_per_subarray", "_subarrays")

    def __init__(self, local: range, rows_per_subarray: int, subarrays: int) -> None:
        self._local = local
        self._rows_per_subarray = rows_per_subarray
        self._subarrays = subarrays

    def __len__(self) -> int:
        return len(self._local) * self._subarrays

    def __getitem__(self, index: int) -> int:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("row index out of range")
        subarray, position = divmod(index, len(self._local))
        return subarray * self._rows_per_subarray + self._local[position]

    def __iter__(self) -> Iterator[int]:
        local = self._local
        for origin in range(
            0, self._subarrays * self._rows_per_subarray, self._rows_per_subarray
        ):
            for offset in local:
                yield origin + offset
