"""The oracle's rule tables, derived from the paper and JEDEC — not from
the simulator.

This module is the independent half of the differential checker. It
re-states, as data:

- the paper's **Table 3** MCR timings (tRCD/tRAS per (K, M), the tRFC
  scaling rule from DESIGN.md §3 "Timing source of truth");
- the **JEDEC DDR3-1600** channel-wide constraints USIMM programs
  (DESIGN.md names USIMM as the substrate; the values below are the
  DDR3-1600 datasheet numbers, written down here independently);
- the **MCR region geometry** rule (paper Fig. 6: the top L% of each
  512-row sub-array, detected on the sub-array-local MSBs);
- the **refresh mix** rule (paper Sec. 4.3: the counter walks every row
  once per 8192-slot window, so a region covering fraction L of the rows
  owns fraction L of the slots, and Refresh-Skipping drops (1 - M/K) of
  that region's slots);
- the **related-work mechanism tables**: each latency-mechanism plugin
  (``repro.mechanisms``) restates its published timings here as
  independent literals — CLR-DRAM's coupled-row max-latency constants
  and ChargeCache's highly-charged-row constants — selected by
  ``OracleConfig.mechanism``. The oracle never imports a plugin; the
  numbers are written down twice on purpose (pipeline independence).

Independence contract: this module must not import
``repro.dram.timing`` (or anything that transitively supplies its
derived numbers — ``repro.dram``'s package init pulls the timing model
in, so nothing from ``repro.dram`` may load here at all). Commands are identified by their *kind names* ("ACTIVATE",
"READ", ...), the protocol's vocabulary, rather than by the simulator's
enum objects; the oracle reads ``cmd.kind.name`` at the tap boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

#: DRAM clock period, ns (DDR3-1600).
TCK_NS: float = 1.25

#: JEDEC DDR3 refresh commands per 64 ms retention window.
SLOTS_PER_WINDOW: int = 8192

#: Per-cell retention window, ms (the "64 ms / M" of paper Sec. 4.3).
RETENTION_WINDOW_MS: float = 64.0

#: tRP in ns — precharge is MCR-independent (paper Table 3 note).
TRP_NS: float = 13.75

#: Normal-row (1/1x) tRCD / tRAS in ns (paper Table 3, first row).
TRCD_1X_NS: float = 13.75
TRAS_1X_NS: float = 35.0

#: Paper Table 3: tRCD(K) ns. Early-Access depends only on K (all M
#: columns of the published table share one tRCD per K).
PAPER_TRCD_NS: dict[int, float] = {1: 13.75, 2: 9.94, 4: 6.90}

#: Paper Table 3: tRAS(K, M) ns. Early-Precharge depends on the per-cell
#: refresh interval 64 ms / M, hence on both K and M.
PAPER_TRAS_NS: dict[tuple[int, int], float] = {
    (1, 1): 35.0,
    (2, 1): 37.52,
    (2, 2): 21.46,
    (4, 1): 46.51,
    (4, 2): 22.78,
    (4, 4): 20.00,
}

#: CLR-DRAM coupled-row (max-latency mode) analog timings, ns — the
#: literals ``repro.mechanisms.clr`` programs into the device, restated
#: here independently (kept in sync by hand, never by import).
CLR_TRCD_NS: float = 10.6
CLR_TRAS_NS: float = 30.6
CLR_TRFC_NS: float = 208.0

#: ChargeCache highly-charged-row analog timings, ns — the literals
#: ``repro.mechanisms.chargecache`` programs for ``RowKind.CHARGED``.
CHARGECACHE_TRCD_NS: float = 7.7
CHARGECACHE_TRAS_NS: float = 22.4

#: JEDEC DDR3 base (1x) tRFC per device density, ns.
JEDEC_TRFC_NS: dict[str, float] = {
    "1Gb": 110.0,
    "2Gb": 160.0,
    "4Gb": 260.0,
    "8Gb": 350.0,
}

#: JEDEC DDR3-1600 channel/rank-wide constraints, in bus cycles
#: (the USIMM DDR3-1600 configuration DESIGN.md names as the substrate).
DDR3_1600_CYCLES: dict[str, int] = {
    "tRP": 11,
    "tCAS": 11,
    "tCWD": 5,
    "tBURST": 4,
    "tRRD": 5,
    "tFAW": 32,
    "tWR": 12,
    "tWTR": 6,
    "tRTP": 6,
    "tCCD": 4,
    "tRTRS": 2,
    "tREFI": 6250,
}

#: JEDEC DDR3: a controller may postpone at most 8 REFRESH commands.
MAX_POSTPONED_REFRESHES: int = 8


def cycles(ns: float) -> int:
    """Quantize an analog latency to whole programmed bus cycles.

    Controllers round *up* (a constraint must never be violated by
    quantization); a 1e-9 slop forgives float noise just above an exact
    multiple, matching how any fixed-point controller tool tabulates the
    published ns values.
    """
    return max(0, math.ceil(ns / TCK_NS - 1e-9))


class RowKind(Enum):
    """The oracle's own row taxonomy (kept distinct from RowClass on
    purpose — the oracle never exchanges class objects with the
    simulator, only raw row numbers)."""

    NORMAL = "normal"
    MCR = "mcr"
    MCR_ALT = "mcr_alt"
    #: Dynamic kind: a recently-closed row re-activated inside the
    #: ChargeCache decay window. No static address maps here; the
    #: oracle's shadow charge table assigns it at ACTIVATE time.
    CHARGED = "charged"


@dataclass(frozen=True)
class OracleConfig:
    """Everything the oracle needs to know about the device under test.

    Deliberately plain data (ints/floats/bools) so corpus artifacts can
    serialize it, and so nothing simulator-side leaks in.
    """

    rows_per_bank: int
    rows_per_subarray: int
    banks_per_rank: int
    ranks_per_channel: int
    density: str
    k: int = 1
    m: int = 1
    region_fraction: float = 0.0
    alt_k: int = 1
    alt_m: int = 1
    alt_region_fraction: float = 0.0
    early_access: bool = True
    early_precharge: bool = True
    fast_refresh: bool = True
    refresh_skipping: bool = True
    #: Which latency mechanism's timing tables apply: "mcr" (the paper's
    #: clone rows, the default), "clr" (coupled rows; the k/m/region
    #: fields above describe the coupled region with k=2, m=1,
    #: fast_refresh off, refresh_skipping on), or "chargecache" (device
    #: mode off; ``cc_capacity``/``cc_window_ns`` drive the shadow
    #: charge table and the ``RowKind.CHARGED`` timings).
    mechanism: str = "mcr"
    cc_capacity: int = 0
    cc_window_ns: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.k > 1 and self.region_fraction > 0.0

    @property
    def has_alt_region(self) -> bool:
        return self.enabled and self.alt_k > 1 and self.alt_region_fraction > 0.0


def row_kind_of(config: OracleConfig, row: int) -> RowKind:
    """Which timing class a row belongs to — re-derived from paper Fig. 6.

    MCRs occupy the top L% of each sub-array (the rows nearest the sense
    amplifiers); a combined configuration stacks the secondary region
    just below the primary one. The detector is a compare on the
    sub-array-local index.
    """
    if not config.enabled:
        return RowKind.NORMAL
    local = row & (config.rows_per_subarray - 1)
    region_start = round(config.rows_per_subarray * (1.0 - config.region_fraction))
    if local >= region_start:
        return RowKind.MCR
    if config.has_alt_region:
        alt_start = round(
            config.rows_per_subarray
            * (1.0 - config.region_fraction - config.alt_region_fraction)
        )
        if local >= alt_start:
            return RowKind.MCR_ALT
    return RowKind.NORMAL


def _km_of(config: OracleConfig, kind: RowKind) -> tuple[int, int]:
    """(K, effective M) for a row kind.

    With Refresh-Skipping off every clone pass is issued, so each cell is
    rewritten K times per window whatever M says — the restore target
    (and hence tRAS) follows M = K (paper Sec. 4.3 / footnote 4).
    """
    if kind is RowKind.MCR:
        k, m = config.k, config.m
    elif kind is RowKind.MCR_ALT:
        k, m = config.alt_k, config.alt_m
    else:
        return 1, 1
    return k, (m if config.refresh_skipping else k)


@dataclass(frozen=True)
class OracleTimings:
    """The oracle's programmed timing table for one configuration.

    Channel-wide constraints come from :data:`DDR3_1600_CYCLES`;
    per-row-kind constraints from paper Table 3 under the active
    mechanism set.
    """

    base: dict[str, int]
    trcd: dict[RowKind, int]
    tras: dict[RowKind, int]
    trc: dict[RowKind, int]
    trfc: dict[RowKind, int]

    def constraint_table(self) -> dict[str, int]:
        """Flat name -> cycles view (same naming convention the
        simulator's observability layer uses, so tests can diff the two
        tables directly)."""
        table = dict(self.base)
        for kind in RowKind:
            table[f"tRCD.{kind.value}"] = self.trcd[kind]
            table[f"tRAS.{kind.value}"] = self.tras[kind]
            table[f"tRC.{kind.value}"] = self.trc[kind]
            table[f"tRFC.{kind.value}"] = self.trfc[kind]
        return table


def oracle_timings(config: OracleConfig) -> OracleTimings:
    """Derive the full programmed table for a configuration.

    tRFC follows the rule DESIGN.md documents (reverse-engineered from
    the twelve published values): the internal refresh of a row *is* an
    activate + precharge, so

        tRFC(mode) = tRFC(1x) * ceil(tRC_mode / tCK) / ceil(tRC_1x / tCK)

    where tRC_mode uses the *programmed* (cycle-quantized) mode tRAS —
    the controller scales what it programmed, not the analog value.
    """
    if config.density not in JEDEC_TRFC_NS:
        raise ValueError(f"unknown density {config.density!r}")
    trfc_base_ns = JEDEC_TRFC_NS[config.density]
    base_trc_cycles = cycles(TRAS_1X_NS + TRP_NS)

    trcd: dict[RowKind, int] = {}
    tras: dict[RowKind, int] = {}
    trc: dict[RowKind, int] = {}
    trfc: dict[RowKind, int] = {}
    for kind in RowKind:
        k, m = _km_of(config, kind)
        if k == 1:
            trcd_ns, tras_ns = TRCD_1X_NS, TRAS_1X_NS
        else:
            trcd_ns = PAPER_TRCD_NS[k] if config.early_access else TRCD_1X_NS
            tras_ns = (
                PAPER_TRAS_NS[(k, m)] if config.early_precharge else TRAS_1X_NS
            )
        trcd[kind] = cycles(trcd_ns)
        tras[kind] = cycles(tras_ns)
        trc[kind] = cycles(tras_ns + TRP_NS)
        if k == 1 or not config.fast_refresh:
            trfc[kind] = cycles(trfc_base_ns)
        else:
            mode_trc_cycles = cycles(tras[kind] * TCK_NS + TRP_NS)
            trfc[kind] = cycles(
                trfc_base_ns * mode_trc_cycles / base_trc_cycles
            )
    if config.mechanism == "clr":
        # Coupled rows run at CLR's own published constants, not MCR's
        # Table 3 (the region geometry still decides *which* rows).
        trcd[RowKind.MCR] = cycles(CLR_TRCD_NS)
        tras[RowKind.MCR] = cycles(CLR_TRAS_NS)
        trc[RowKind.MCR] = cycles(CLR_TRAS_NS + TRP_NS)
        trfc[RowKind.MCR] = cycles(CLR_TRFC_NS)
    elif config.mechanism == "chargecache":
        trcd[RowKind.CHARGED] = cycles(CHARGECACHE_TRCD_NS)
        tras[RowKind.CHARGED] = cycles(CHARGECACHE_TRAS_NS)
        trc[RowKind.CHARGED] = cycles(CHARGECACHE_TRAS_NS + TRP_NS)
    elif config.mechanism != "mcr":
        raise ValueError(f"unknown oracle mechanism {config.mechanism!r}")
    return OracleTimings(
        base=dict(DDR3_1600_CYCLES), trcd=trcd, tras=tras, trc=trc, trfc=trfc
    )


def refresh_slot_mix(config: OracleConfig) -> dict[str, int]:
    """Per-8192-slot-window refresh mix, from the paper's counting rule.

    The refresh counter walks every row exactly once per window, so a
    region covering fraction L of every sub-array owns ``round(8192*L)``
    slots. Refresh-Skipping keeps M of every K clone passes, skipping
    the region's remaining ``region*(K-M)/K`` slots; Fast-Refresh makes
    the issued region slots run at the mode tRFC.
    """
    counts = {"normal": SLOTS_PER_WINDOW, "fast": 0, "fast_alt": 0, "skipped": 0}
    if not config.enabled:
        return counts
    regions = [("fast", config.region_fraction, config.k, config.m)]
    if config.has_alt_region:
        regions.append(
            ("fast_alt", config.alt_region_fraction, config.alt_k, config.alt_m)
        )
    for label, fraction, k, m in regions:
        region_slots = round(SLOTS_PER_WINDOW * fraction)
        skipped = region_slots * (k - m) // k if config.refresh_skipping else 0
        issued = region_slots - skipped
        fast = issued if config.fast_refresh else 0
        counts["skipped"] += skipped
        counts[label] += fast
        counts["normal"] -= skipped + fast
    return counts


def issued_refresh_fraction(config: OracleConfig) -> float:
    """Fraction of due refresh slots that require a REFRESH command."""
    mix = refresh_slot_mix(config)
    return 1.0 - mix["skipped"] / SLOTS_PER_WINDOW


def legal_trfc_values(config: OracleConfig, timings: OracleTimings) -> set[int]:
    """tRFC values a REFRESH command may legally charge.

    A slot's cost is the tRFC of the row kind it refreshes; only kinds
    with a non-zero slot share can appear.
    """
    mix = refresh_slot_mix(config)
    legal = set()
    if mix["normal"] or not config.fast_refresh:
        legal.add(timings.trfc[RowKind.NORMAL])
    if config.fast_refresh:
        if mix["fast"]:
            legal.add(timings.trfc[RowKind.MCR])
        if mix["fast_alt"]:
            legal.add(timings.trfc[RowKind.MCR_ALT])
    return legal


# ----------------------------------------------------------------------
# The rule tables proper
# ----------------------------------------------------------------------
#
# Each spacing rule derives "earliest legal cycle" bounds for one command
# from the oracle's shadow history; each structural rule names a
# condition no cycle could repair. The oracle iterates these tables —
# adding a constraint means adding a row, not editing control flow.


#: Command-kind names (the DDR3 command vocabulary).
COMMAND_KINDS = ("ACTIVATE", "READ", "WRITE", "PRECHARGE", "REFRESH", "MRS")


@dataclass(frozen=True)
class SpacingRule:
    """One inter-command minimum-spacing constraint.

    ``bound(state, cmd, timings)`` returns the earliest legal issue
    cycle implied by this rule, or None when the rule's history does not
    apply (e.g. no prior ACT for tRC).
    """

    name: str
    applies_to: frozenset[str]  # command-kind names
    scope: str  # "bank" | "rank" | "channel" — documentation + tests
    bound: Callable[..., int | None]


@dataclass(frozen=True)
class StructuralRule:
    """A command-legality condition independent of timing.

    ``violated(state, cmd)`` returns True when the command is
    structurally illegal at any cycle.
    """

    name: str
    applies_to: frozenset[str]  # command-kind names
    violated: Callable[..., bool]


_ACT = frozenset({"ACTIVATE"})
_COL = frozenset({"READ", "WRITE"})
_PRE = frozenset({"PRECHARGE"})
_REF = frozenset({"REFRESH"})
_ALL = frozenset(COMMAND_KINDS) - {"MRS"}


def _bank(state, cmd):
    return state.bank(cmd.rank, cmd.bank)


def _rank(state, cmd):
    return state.rank(cmd.rank)


SPACING_RULES: tuple[SpacingRule, ...] = (
    # Order is significant: the gate label names the *first* rule among
    # those tied at the largest bound, so rules are listed as the
    # command-bus and refresh guards, then the ACTIVATE, column and
    # PRECHARGE families, then the REFRESH precharge guard.
    SpacingRule(
        "command-bus",
        _ALL,
        "channel",
        lambda s, cmd, t: None
        if s.last_cmd_cycle is None
        else s.last_cmd_cycle + 1,
    ),
    SpacingRule(
        "tRFC",
        _ALL,
        "rank",
        lambda s, cmd, t: None
        if _rank(s, cmd).ref_cycle is None
        else _rank(s, cmd).ref_cycle + _rank(s, cmd).ref_trfc,
    ),
    SpacingRule(
        "tRC",
        _ACT,
        "bank",
        lambda s, cmd, t: None
        if _bank(s, cmd).act_cycle is None
        else _bank(s, cmd).act_cycle + t.trc[_bank(s, cmd).act_kind],
    ),
    SpacingRule(
        "tRP",
        _ACT,
        "bank",
        lambda s, cmd, t: None
        if _bank(s, cmd).pre_cycle is None
        else _bank(s, cmd).pre_cycle + t.base["tRP"],
    ),
    SpacingRule(
        "tRRD",
        _ACT,
        "rank",
        lambda s, cmd, t: None
        if not _rank(s, cmd).act_cycles
        else _rank(s, cmd).act_cycles[-1] + t.base["tRRD"],
    ),
    SpacingRule(
        "tFAW",
        _ACT,
        "rank",
        lambda s, cmd, t: None
        if len(_rank(s, cmd).act_cycles) < 4
        else _rank(s, cmd).act_cycles[0] + t.base["tFAW"],
    ),
    SpacingRule(
        "tRCD",
        _COL,
        "bank",
        lambda s, cmd, t: None
        if _bank(s, cmd).act_cycle is None or _bank(s, cmd).open_row is None
        else _bank(s, cmd).act_cycle + t.trcd[_bank(s, cmd).act_kind],
    ),
    SpacingRule(
        "tCCD",
        _COL,
        "rank",
        lambda s, cmd, t: None
        if _rank(s, cmd).col_cycle is None
        else _rank(s, cmd).col_cycle + t.base["tCCD"],
    ),
    SpacingRule(
        "tWTR",
        frozenset({"READ"}),
        "rank",
        lambda s, cmd, t: None
        if _rank(s, cmd).col_cycle is None or not _rank(s, cmd).col_is_write
        else _rank(s, cmd).col_cycle
        + t.base["tCWD"]
        + t.base["tBURST"]
        + t.base["tWTR"],
    ),
    SpacingRule(
        "data-bus",
        _COL,
        "channel",
        lambda s, cmd, t: s.data_bus_bound(cmd, t),
    ),
    SpacingRule(
        "tRAS",
        _PRE,
        "bank",
        lambda s, cmd, t: None
        if _bank(s, cmd).act_cycle is None or _bank(s, cmd).open_row is None
        else _bank(s, cmd).act_cycle + t.tras[_bank(s, cmd).act_kind],
    ),
    SpacingRule(
        "tWR",
        _PRE,
        "bank",
        lambda s, cmd, t: s.write_recovery_bound(cmd, t),
    ),
    SpacingRule(
        "tRTP",
        _PRE,
        "bank",
        lambda s, cmd, t: s.read_to_precharge_bound(cmd, t),
    ),
    SpacingRule(
        "tRP-before-REF",
        _REF,
        "rank",
        lambda s, cmd, t: s.latest_pre_bound(cmd.rank, t),
    ),
)


STRUCTURAL_RULES: tuple[StructuralRule, ...] = (
    StructuralRule(
        "ACT-to-open-bank",
        _ACT,
        lambda s, cmd: _bank(s, cmd).open_row is not None,
    ),
    StructuralRule(
        "column-to-closed-bank",
        _COL,
        lambda s, cmd: _bank(s, cmd).open_row is None,
    ),
    StructuralRule(
        "column-row-mismatch",
        _COL,
        lambda s, cmd: _bank(s, cmd).open_row is not None
        and cmd.row >= 0
        and _bank(s, cmd).open_row != cmd.row,
    ),
    StructuralRule(
        "PRE-to-closed-bank",
        _PRE,
        lambda s, cmd: _bank(s, cmd).open_row is None,
    ),
    StructuralRule(
        "REF-with-open-bank",
        _REF,
        lambda s, cmd: s.any_bank_open(cmd.rank),
    ),
    StructuralRule(
        "tRFC-class",
        _REF,
        lambda s, cmd: cmd.row not in s.legal_trfc,
    ),
)


__all__ = [
    "CHARGECACHE_TRAS_NS",
    "CHARGECACHE_TRCD_NS",
    "CLR_TRAS_NS",
    "CLR_TRCD_NS",
    "CLR_TRFC_NS",
    "COMMAND_KINDS",
    "DDR3_1600_CYCLES",
    "JEDEC_TRFC_NS",
    "MAX_POSTPONED_REFRESHES",
    "OracleConfig",
    "OracleTimings",
    "PAPER_TRAS_NS",
    "PAPER_TRCD_NS",
    "RETENTION_WINDOW_MS",
    "RowKind",
    "SLOTS_PER_WINDOW",
    "SPACING_RULES",
    "STRUCTURAL_RULES",
    "SpacingRule",
    "StructuralRule",
    "TCK_NS",
    "TRAS_1X_NS",
    "TRCD_1X_NS",
    "TRP_NS",
    "cycles",
    "issued_refresh_fraction",
    "legal_trfc_values",
    "oracle_timings",
    "refresh_slot_mix",
    "row_kind_of",
]
