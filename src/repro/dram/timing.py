"""DDR3-1600 timing parameters and per-row-class timing domains.

Base timings follow the USIMM DDR3-1600 configuration (tCK = 1.25 ns);
tRCD/tRAS/tRC for MCR rows come from the circuit model's derived Table 3,
quantized to whole clock cycles the way a controller would program them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.circuit.restore import RestoreModel
from repro.circuit.timing_solver import (
    TRP_NS,
    DerivedTimings,
    derive_timing_table,
    trfc_scaling_rule,
)
from repro.dram.config import REFRESH_SLOTS_PER_WINDOW, DRAMGeometry
from repro.dram.mcr import MCRModeConfig, RowClass
from repro.dram.refresh import WiringMethod
from repro.utils.units import ns_to_cycles


@dataclass(frozen=True, slots=True)
class BaseTimings:
    """Channel-wide DDR3 timing parameters, in memory-bus cycles.

    Defaults are USIMM's DDR3-1600 values. Row-class-dependent parameters
    (tRCD, tRAS, tRC, tRFC) live in :class:`RowTimings` /
    :class:`TimingDomain` instead.
    """

    tck_ns: float = 1.25
    t_rp: int = 11  # precharge to activate
    t_cas: int = 11  # read to data (CL)
    t_cwd: int = 5  # write to data (CWL)
    t_burst: int = 4  # data bus occupancy per CAS (BL8, DDR)
    t_rrd: int = 5  # activate to activate, same rank
    t_faw: int = 32  # four-activate window, same rank
    t_wr: int = 12  # write recovery (data end to precharge)
    t_wtr: int = 6  # write data end to read, same rank
    t_rtp: int = 6  # read to precharge
    t_ccd: int = 4  # column command to column command, same rank
    t_rtrs: int = 2  # rank-to-rank data-bus switch bubble
    t_refi: int = 6250  # average refresh interval (7.8125 us at 800 MHz)
    t_mod: int = 12  # MRS to non-MRS command delay

    def __post_init__(self) -> None:
        if self.tck_ns <= 0:
            raise ValueError("tck_ns must be positive")
        for name in (
            "t_rp",
            "t_cas",
            "t_cwd",
            "t_burst",
            "t_rrd",
            "t_faw",
            "t_wr",
            "t_wtr",
            "t_rtp",
            "t_ccd",
            "t_rtrs",
            "t_refi",
            "t_mod",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True, slots=True)
class RowTimings:
    """Per-row-class activate timings, in cycles."""

    t_rcd: int
    t_ras: int
    t_rc: int

    def __post_init__(self) -> None:
        if min(self.t_rcd, self.t_ras, self.t_rc) <= 0:
            raise ValueError("row timings must be positive")
        if self.t_rc < self.t_ras:
            raise ValueError("tRC cannot be smaller than tRAS")


@lru_cache(maxsize=None)
def _derived_table() -> DerivedTimings:
    return derive_timing_table()


@lru_cache(maxsize=None)
def _restore_model() -> RestoreModel:
    return RestoreModel()


class TimingDomain:
    """All programmed timing constraints for one (geometry, MCR mode) pair.

    The controller consults this object for every constraint it enforces.
    Mechanism flags shape the MCR row class:

    - Early-Access off  -> MCR rows keep the normal tRCD;
    - Early-Precharge off -> MCR rows keep the normal tRAS (and tRC);
    - Fast-Refresh off -> every refresh slot costs the normal tRFC;
    - Refresh-Skipping off -> every clone pass is issued, so the restore
      target (and tRAS) uses M = K rather than the configured M.
    """

    def __init__(
        self,
        geometry: DRAMGeometry,
        mode: MCRModeConfig,
        base: BaseTimings | None = None,
        derived: DerivedTimings | None = None,
        wiring: WiringMethod = WiringMethod.K_TO_N_MINUS_1_K,
        row_timing_overrides: dict[RowClass, RowTimings] | None = None,
        trfc_overrides: dict[RowClass, int] | None = None,
    ) -> None:
        """``row_timing_overrides`` / ``trfc_overrides`` replace the
        derived values per row class — used to model *other* tiered-
        latency devices (e.g. the TL-DRAM comparator) on the same
        region/controller machinery."""
        self.geometry = geometry
        self.mode = mode
        self.base = base if base is not None else BaseTimings()
        self.wiring = wiring
        self._derived = derived if derived is not None else _derived_table()
        self._row_timing_overrides = row_timing_overrides or {}
        self._trfc_overrides = trfc_overrides or {}

        tck = self.base.tck_ns
        normal = RowTimings(
            t_rcd=ns_to_cycles(self._derived.trcd_ns[(1, 1)], tck),
            t_ras=ns_to_cycles(self._derived.tras_ns[(1, 1)], tck),
            t_rc=ns_to_cycles(self._derived.tras_ns[(1, 1)] + TRP_NS, tck),
        )
        self._row_timings: dict[RowClass, RowTimings] = {RowClass.NORMAL: normal}
        self._trfc_cycles: dict[RowClass, int] = {
            RowClass.NORMAL: ns_to_cycles(geometry.trfc_base_ns, tck)
        }
        for row_class in (RowClass.MCR, RowClass.MCR_ALT):
            k = mode.k_of(row_class)
            if mode.enabled and k > 1:
                self._row_timings[row_class] = self._mcr_row_timings(
                    k, mode.effective_m_of(row_class)
                )
                self._trfc_cycles[row_class] = self._mcr_trfc_cycles(
                    self._row_timings[row_class]
                )
            else:
                self._row_timings[row_class] = normal
                self._trfc_cycles[row_class] = self._trfc_cycles[RowClass.NORMAL]
        # Any further row classes (e.g. the dynamic CHARGED class used by
        # mechanism plugins) default to normal timings unless overridden.
        for row_class in RowClass:
            if row_class not in self._row_timings:
                self._row_timings[row_class] = normal
                self._trfc_cycles[row_class] = self._trfc_cycles[RowClass.NORMAL]
        self._row_timings.update(self._row_timing_overrides)
        self._trfc_cycles.update(self._trfc_overrides)
        # Flat per-row-class tables indexed by ``RowClass.value`` so the
        # hot lookups (one per ACTIVATE / refresh slot) are list indexing
        # rather than enum-keyed dict hashing. RowClass values are small
        # consecutive ints (enum ``auto()``), so the tables stay tiny.
        size = max(cls.value for cls in RowClass) + 1
        self._row_timings_table: list[RowTimings | None] = [None] * size
        self._trfc_table: list[int] = [0] * size
        for row_class in RowClass:
            self._row_timings_table[row_class.value] = self._row_timings[row_class]
            self._trfc_table[row_class.value] = self._trfc_cycles[row_class]

    def _mcr_row_timings(self, k: int, m: int) -> RowTimings:
        mech = self.mode.mechanisms
        tck = self.base.tck_ns
        key = (k, m)
        trcd_ns = (
            self._derived.trcd_ns[key]
            if mech.early_access
            else self._derived.trcd_ns[(1, 1)]
        )
        if not mech.early_precharge:
            tras_ns = self._derived.tras_ns[(1, 1)]
        elif self.wiring is WiringMethod.K_TO_K:
            # Under the naive wiring the K clone passes happen on
            # consecutive refresh slots, so the worst per-cell interval is
            # nearly the whole window — Early-Precharge gets (almost) no
            # leakage budget. Derive tRAS from the actual interval.
            tras_ns = self._k_to_k_tras_ns(k)
        else:
            tras_ns = self._derived.tras_ns[key]
        return RowTimings(
            t_rcd=ns_to_cycles(trcd_ns, tck),
            t_ras=ns_to_cycles(tras_ns, tck),
            t_rc=ns_to_cycles(tras_ns + TRP_NS, tck),
        )

    def _k_to_k_tras_ns(self, k: int) -> float:
        """tRAS under K-to-K wiring: restore target from the real interval."""
        restore = _restore_model()
        slots = REFRESH_SLOTS_PER_WINDOW
        interval_fraction = (slots - k + 1) / slots  # of the 64 ms window
        leak = restore.tech.leak_frac_per_64ms
        theta = restore.calibration.theta
        target = min(theta, 1.0 - leak * (1.0 - interval_fraction))
        return restore.time_to_fraction(k, target)

    def _mcr_trfc_cycles(self, timings: RowTimings) -> int:
        mech = self.mode.mechanisms
        tck = self.base.tck_ns
        if not mech.fast_refresh:
            return ns_to_cycles(self.geometry.trfc_base_ns, tck)
        fast_trfc_ns = trfc_scaling_rule(
            tras_mode_ns=timings.t_ras * tck,
            tras_base_ns=self._derived.tras_ns[(1, 1)],
            trfc_base_ns=self.geometry.trfc_base_ns,
            tck_ns=tck,
        )
        return ns_to_cycles(fast_trfc_ns, tck)

    def row_timings(self, row_class: RowClass) -> RowTimings:
        """tRCD/tRAS/tRC programmed for a row class."""
        return self._row_timings_table[row_class.value]

    def trfc_cycles(self, row_class: RowClass) -> int:
        """tRFC of a refresh slot whose target rows have this class."""
        return self._trfc_table[row_class.value]

    @property
    def read_latency_cycles(self) -> int:
        """CAS issue to last data beat: tCAS + tBURST."""
        return self.base.t_cas + self.base.t_burst

    def describe(self) -> dict[str, object]:
        """Summary dict for reports and debugging."""
        normal = self._row_timings[RowClass.NORMAL]
        mcr = self._row_timings[RowClass.MCR]
        return {
            "mode": self.mode.label(),
            "tck_ns": self.base.tck_ns,
            "normal": {"tRCD": normal.t_rcd, "tRAS": normal.t_ras, "tRC": normal.t_rc},
            "mcr": {"tRCD": mcr.t_rcd, "tRAS": mcr.t_ras, "tRC": mcr.t_rc},
            "tRFC_normal": self._trfc_cycles[RowClass.NORMAL],
            "tRFC_mcr": self._trfc_cycles[RowClass.MCR],
        }

    def constraint_table(self) -> dict[str, int]:
        """Every inter-command spacing constraint, by the name the
        protocol oracle's rule tables use (tests diff the two tables).

        Row-class-dependent constraints are suffixed with the class name;
        channel-wide constraints appear once.
        """
        base = self.base
        table: dict[str, int] = {
            "tRP": base.t_rp,
            "tCAS": base.t_cas,
            "tCWD": base.t_cwd,
            "tBURST": base.t_burst,
            "tRRD": base.t_rrd,
            "tFAW": base.t_faw,
            "tWR": base.t_wr,
            "tWTR": base.t_wtr,
            "tRTP": base.t_rtp,
            "tCCD": base.t_ccd,
            "tRTRS": base.t_rtrs,
            "tREFI": base.t_refi,
        }
        for row_class in RowClass:
            suffix = row_class.name.lower()
            timings = self._row_timings[row_class]
            table[f"tRCD.{suffix}"] = timings.t_rcd
            table[f"tRAS.{suffix}"] = timings.t_ras
            table[f"tRC.{suffix}"] = timings.t_rc
            table[f"tRFC.{suffix}"] = self._trfc_cycles[row_class]
        return table
