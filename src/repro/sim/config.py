"""System configuration for the simulated tightly coupled CPU-GPU system.

The defaults mirror Table 5.1 of the paper: 1 CPU core and 15 GPU SMs on a
4x4 mesh, private L1s, a banked NUCA L2 shared by all cores, a 32-entry MSHR
and a 32-entry write-combining store buffer per SM, and a 16 KB scratchpad or
stash with 32 banks.

Latencies are expressed in GPU cycles.  The paper reports latency *ranges*
(L2 hit 29-61 cycles, memory 197-261 cycles, remote L1 35-83 cycles) because
the L2 is NUCA and costs depend on mesh distance; here the ranges emerge from
the hop count between the requesting core and the home L2 bank.

The cache topology itself is sweepable: the flat ``l1_*``/``l2_*`` fields
describe the default Table 5.1 two-level machine, and an explicit
``hierarchy`` field (a :mod:`repro.mem.hierarchy` spec as a plain dict)
replaces it with any composition of private / cluster / global levels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace


class Protocol(enum.Enum):
    """GPU L1 coherence protocol selector."""

    GPU_COHERENCE = "gpu"
    DENOVO = "denovo"


def _coerce_enums(values: dict) -> dict:
    """Map string values of the enum-typed fields back to their enums."""
    for key, enum_type in (("protocol", Protocol), ("local_memory", LocalMemory)):
        if key in values and not isinstance(values[key], enum_type):
            values[key] = enum_type(values[key])
    return values


class LocalMemory(enum.Enum):
    """Local memory organization used by a kernel (second case study)."""

    NONE = "none"
    SCRATCHPAD = "scratchpad"
    SCRATCHPAD_DMA = "scratchpad_dma"
    STASH = "stash"


@dataclass
class SystemConfig:
    """All architectural parameters of the simulated system.

    Instances are plain dataclasses: tweak fields and pass the config to
    :class:`repro.system.System`.  Use :meth:`scaled` to derive sweeps.
    """

    # --- topology (Table 5.1) -------------------------------------------
    num_sms: int = 15
    num_cpus: int = 1
    mesh_rows: int = 4
    mesh_cols: int = 4

    # --- clocks ----------------------------------------------------------
    gpu_freq_ghz: float = 0.7
    cpu_freq_ghz: float = 2.0

    # --- SM core ---------------------------------------------------------
    warp_size: int = 32
    max_warps_per_sm: int = 48
    issue_width: int = 1
    alu_latency: int = 4
    sfu_latency: int = 16
    sfu_initiation_interval: int = 8

    # --- memory hierarchy (Table 5.1) -------------------------------------
    line_size: int = 64
    l1_size: int = 32 * 1024
    l1_assoc: int = 8
    l1_banks: int = 8
    l1_hit_latency: int = 1
    l2_size: int = 4 * 1024 * 1024
    l2_assoc: int = 16
    l2_banks: int = 16
    l2_access_latency: int = 23
    #: directory/tag lookup portion of an L2 access: forwards and write
    #: acks leave the bank after this; data responses pay the full access
    l2_dir_latency: int = 8
    #: owner-side service time for a forwarded request (L1 tag + data read
    #: + response injection); tuned so the emergent remote-L1 range matches
    #: Table 5.1's 35-83 cycles
    remote_fwd_latency: int = 12
    dram_latency: int = 170
    dram_channels: int = 4
    mshr_entries: int = 32
    store_buffer_entries: int = 32

    # --- scratchpad / stash (Table 5.1) -----------------------------------
    scratchpad_size: int = 16 * 1024
    scratchpad_banks: int = 32
    scratchpad_hit_latency: int = 1
    dma_issue_interval: int = 1

    # --- interconnect ------------------------------------------------------
    hop_latency: int = 3
    router_latency: int = 0
    #: messages per cycle each node can inject/eject (NoC interface width)
    mesh_endpoint_bw: int = 2

    # --- memory-hierarchy fabric -------------------------------------------
    #: explicit hierarchy shape (a :class:`repro.mem.hierarchy.HierarchySpec`
    #: as a plain dict: ``{"levels": [...], "label": ...}``).  ``None`` means
    #: "derive the Table 5.1 shape from the flat fields above" -- the two
    #: spellings elaborate to the identical machine.  Stored in canonical
    #: (fully populated) dict form so configs compare and serialize stably.
    hierarchy: dict | None = None

    # --- protocol / local memory selection ---------------------------------
    protocol: Protocol = Protocol.GPU_COHERENCE
    local_memory: LocalMemory = LocalMemory.NONE

    # --- extensions (ablations) --------------------------------------------
    # QuickRelease-style S-FIFO: releases do not block subsequent memory
    # instructions from issuing to the LSU (Section 6.1.4 suggestion).
    sfifo_release: bool = False
    # Write combining in the store buffer (ablation; paper always uses it).
    write_combining: bool = True
    # Warp scheduler policy: "lrr" (loose round robin) or "gto"
    # (greedy-then-oldest).
    warp_scheduler: str = "lrr"
    # Cycle attribution policy (ablation): "weak" is the paper's Algorithm 2;
    # "strong" inverts to the strongest cause; "first" takes the first
    # stalled warp in scheduler order.
    attribution_policy: str = "weak"

    # --- profiling -----------------------------------------------------------
    gsi_enabled: bool = True
    #: bucket size (cycles) for windowed stall timelines; None disables them
    timeline_window: int | None = None

    # --- run control -----------------------------------------------------------
    max_cycles: int = 5_000_000
    seed: int = 2016

    def __post_init__(self) -> None:
        """Validate everything at construction time, with messages that say
        how to fix the configuration -- a bad config must never survive long
        enough to fail deep inside ``System`` elaboration."""
        if self.num_sms < 0 or self.num_cpus < 0:
            raise ValueError(
                "num_sms (%d) and num_cpus (%d) must be non-negative"
                % (self.num_sms, self.num_cpus)
            )
        if self.mesh_rows < 1 or self.mesh_cols < 1:
            raise ValueError(
                "mesh must be at least 1x1 (got %dx%d)"
                % (self.mesh_rows, self.mesh_cols)
            )
        if self.num_sms + self.num_cpus > self.mesh_rows * self.mesh_cols:
            raise ValueError(
                "mesh is %dx%d = %d nodes but num_sms=%d + num_cpus=%d = %d "
                "cores were requested; grow mesh_rows/mesh_cols or shrink "
                "the core counts (each core occupies one mesh node)"
                % (
                    self.mesh_rows,
                    self.mesh_cols,
                    self.mesh_rows * self.mesh_cols,
                    self.num_sms,
                    self.num_cpus,
                    self.num_sms + self.num_cpus,
                )
            )
        if self.line_size < 1 or self.line_size & (self.line_size - 1):
            raise ValueError(
                "line_size %d must be a power of two (line numbers are "
                "address shifts)" % self.line_size
            )
        for label, value in (
            ("l1_assoc", self.l1_assoc),
            ("l1_banks", self.l1_banks),
            ("l2_assoc", self.l2_assoc),
            ("l2_banks", self.l2_banks),
        ):
            if value < 1 or value & (value - 1):
                raise ValueError(
                    "%s must be a power of two, got %d (bank and way "
                    "selection are address modulos)" % (label, value)
                )
        if self.l1_size % (self.line_size * self.l1_assoc):
            raise ValueError(
                "l1_size %d must be a multiple of line_size * l1_assoc = %d"
                % (self.l1_size, self.line_size * self.l1_assoc)
            )
        if self.l2_size % (self.line_size * self.l2_assoc * self.l2_banks):
            raise ValueError(
                "l2_size %d must be a multiple of line_size * l2_assoc * "
                "l2_banks = %d"
                % (
                    self.l2_size,
                    self.line_size * self.l2_assoc * self.l2_banks,
                )
            )
        if self.mshr_entries < 1 or self.store_buffer_entries < 1:
            raise ValueError("mshr and store buffer need at least one entry")
        if self.warp_scheduler not in ("lrr", "gto"):
            raise ValueError("warp_scheduler must be 'lrr' or 'gto'")
        if self.attribution_policy not in ("weak", "strong", "first"):
            raise ValueError(
                "attribution_policy must be 'weak', 'strong' or 'first'"
            )
        if self.hierarchy is not None:
            # Normalize to the canonical dict form so configs that spell the
            # same shape differently compare (and hash) equal, and validate
            # the shape against this machine's geometry right away.
            from repro.mem.hierarchy import HierarchySpec

            spec = HierarchySpec.from_dict(self.hierarchy)
            spec.validate(line_size=self.line_size, num_sms=self.num_sms)
            self.hierarchy = spec.to_dict()

    # ------------------------------------------------------------------
    def effective_hierarchy(self):
        """The :class:`~repro.mem.hierarchy.HierarchySpec` this config
        elaborates to: the explicit one, or the Table 5.1 shape derived
        from the flat ``l1_*``/``l2_*`` fields."""
        from repro.mem.hierarchy import HierarchySpec

        if self.hierarchy is None:
            return HierarchySpec.from_config(self)
        return HierarchySpec.from_dict(self.hierarchy)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total mesh nodes."""
        return self.mesh_rows * self.mesh_cols

    @property
    def sm_nodes(self) -> list[int]:
        """Mesh node of each SM: SMs fill the mesh from node 0 upward."""
        return list(range(self.num_sms))

    @property
    def cpu_nodes(self) -> list[int]:
        """Mesh node of each CPU core: CPUs fill the mesh from the top end
        downward.  Non-overlap with :attr:`sm_nodes` is guaranteed by the
        capacity check at construction."""
        return [self.num_nodes - 1 - i for i in range(self.num_cpus)]

    @property
    def l1_sets(self) -> int:
        return self.l1_size // (self.line_size * self.l1_assoc)

    @property
    def l2_sets_per_bank(self) -> int:
        return self.l2_size // (self.line_size * self.l2_assoc * self.l2_banks)

    @property
    def offset_bits(self) -> int:
        return self.line_size.bit_length() - 1

    def line_of(self, addr: int) -> int:
        """Cache line (block) number containing byte address ``addr``."""
        return addr >> self.offset_bits

    def scaled(self, **overrides) -> "SystemConfig":
        """Return a copy with the given fields replaced (sweep helper).

        Enum fields also accept their string values (``protocol="denovo"``),
        so declarative scenario specs can stay plain JSON data.
        """
        return replace(self, **_coerce_enums(overrides))

    # --- serialization (scenario cache keys, worker-process boundary) ---
    def to_dict(self) -> dict:
        """JSON-ready dict of every field; enums become their values.

        ``hierarchy`` is omitted when unset (the default Table 5.1 shape):
        configs that never opted into an explicit fabric keep their exact
        historical serialization, so cached results and regenerated
        artifacts stay byte-identical.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.value if isinstance(value, enum.Enum) else value
        if out["hierarchy"] is None:
            del out["hierarchy"]
        return out

    @staticmethod
    def from_dict(data: dict) -> "SystemConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(SystemConfig)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError("unknown SystemConfig field(s): %s" % ", ".join(unknown))
        return SystemConfig(**_coerce_enums(dict(data)))

    def table51_rows(self) -> list[tuple[str, str]]:
        """Render the configuration as the rows of Table 5.1."""
        return [
            ("CPU frequency", "%.0f GHz" % self.cpu_freq_ghz),
            ("CPU cores", str(self.num_cpus)),
            ("GPU frequency", "%.0f MHz" % (self.gpu_freq_ghz * 1000)),
            ("GPU SMs", str(self.num_sms)),
            ("Scratchpad/stash size", "%d KB" % (self.scratchpad_size // 1024)),
            ("Scratchpad/stash banks", str(self.scratchpad_banks)),
            ("L1 hit latency", "%d cycle" % self.l1_hit_latency),
            (
                "L1 size",
                "%d KB (%d banks, %d-way)"
                % (self.l1_size // 1024, self.l1_banks, self.l1_assoc),
            ),
            (
                "L2 size",
                "%d MB (%d banks, NUCA)" % (self.l2_size // (1024 * 1024), self.l2_banks),
            ),
            ("L2 access latency", "%d cycles + hops" % self.l2_access_latency),
            ("Memory latency", "%d cycles + hops" % self.dram_latency),
            ("MSHR entries", str(self.mshr_entries)),
            ("Store buffer entries", str(self.store_buffer_entries)),
        ]
