"""Declarative memory-hierarchy fabric.

The paper's machine (Table 5.1: private per-SM L1s in front of one banked
NUCA L2 shared by every core) used to be hard-wired into ``System``.  This
module makes the cache topology itself *data*: a :class:`HierarchySpec` is
an ordered list of :class:`CacheLevelSpec`, each naming a sharing domain --

* ``private`` -- one instance per core (the paper's L1s),
* ``cluster`` -- one instance shared by ``cluster_size`` adjacent SMs,
* ``global``  -- one banked instance shared by every core (the paper's L2),

plus geometry (size / associativity / banks), latencies, and two per-level
options: ``bypass`` (loads skip the level -- scratchpad-heavy kernels) and
``victim`` (the level fills only from the level above's evictions).

``System`` elaborates a spec into the live machine: private/cluster levels
stack inside each core's :class:`~repro.mem.l1.L1Controller`, global levels
chain behind the directory level (:class:`~repro.mem.l2.L2Cache`, whatever
its spec names it), and the last level backs onto DRAM.  The default spec
(:meth:`HierarchySpec.from_config`) elaborates to exactly the Table 5.1
machine, so flat ``SystemConfig`` fields (``l1_size``, ``l2_banks``, ...)
keep working and produce byte-identical artifacts.

The tag-array mechanics every level needs -- banked set-associative lookup,
per-bank single-issue serialization, fill-with-eviction, home-node
placement -- live here once, in :class:`BankedTagArray`, instead of being
duplicated between the L1 and L2 controllers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.core.component import Component
from repro.mem.cache import LineState, SetAssocCache


class Sharing(enum.Enum):
    """Sharing domain of one cache level."""

    PRIVATE = "private"
    CLUSTER = "cluster"
    GLOBAL = "global"

    __hash__ = object.__hash__


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _power_of_two(n: int) -> bool:
    return n >= 1 and not (n & (n - 1))


#: component names the elaboration claims for itself: a level with one of
#: these would collide inside the component tree (the stack's fixed
#: children, the system's fixed children, or the per-bank tag arrays).
_RESERVED_LEVEL_NAMES = frozenset(
    {
        "cache", "mshr", "store_buffer", "lsu", "compute_units",
        "scratchpad", "dma", "stash", "engine", "mesh", "dram", "system",
        "replay",
    }
)


@dataclass
class CacheLevelSpec:
    """One level of the fabric, as plain sweepable data.

    ``hit_latency`` is the full access latency of the level; global levels
    additionally split off ``dir_latency`` (directory/tag portion -- the
    part forwards and write acks pay; defaults to ``hit_latency``).
    """

    name: str
    sharing: Sharing = Sharing.PRIVATE
    size: int = 32 * 1024
    assoc: int = 8
    banks: int = 1
    hit_latency: int = 1
    dir_latency: int | None = None
    bypass: bool = False
    victim: bool = False
    cluster_size: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.sharing, Sharing):
            self.sharing = Sharing(self.sharing)

    # -- geometry --------------------------------------------------------
    def sets(self, line_size: int) -> int:
        """Sets per bank; raises with an actionable message if the geometry
        does not divide."""
        per_bank = self.size // self.banks
        _require(
            per_bank % (line_size * self.assoc) == 0 and per_bank > 0,
            "hierarchy level %r: size %d does not divide into %d bank(s) of "
            "%d-way sets of %d-byte lines -- size must be a multiple of "
            "banks * assoc * line_size (= %d)"
            % (
                self.name,
                self.size,
                self.banks,
                self.assoc,
                line_size,
                self.banks * self.assoc * line_size,
            ),
        )
        return per_bank // (line_size * self.assoc)

    @property
    def effective_dir_latency(self) -> int:
        return self.hit_latency if self.dir_latency is None else self.dir_latency

    # -- validation ------------------------------------------------------
    def validate(self, line_size: int) -> None:
        _require(
            bool(self.name) and self.name.replace("_", "").isalnum(),
            "hierarchy level name %r must be a non-empty identifier "
            "(letters, digits, underscores)" % (self.name,),
        )
        _require(
            self.name not in _RESERVED_LEVEL_NAMES
            and not self.name.startswith(("bank", "sm", "cpu")),
            "hierarchy level name %r collides with a fixed component-tree "
            "name (reserved: %s; prefixes bank/sm/cpu); pick another name"
            % (self.name, ", ".join(sorted(_RESERVED_LEVEL_NAMES))),
        )
        _require(
            _power_of_two(self.assoc),
            "hierarchy level %r: assoc %d must be a power of two"
            % (self.name, self.assoc),
        )
        _require(
            _power_of_two(self.banks),
            "hierarchy level %r: banks %d must be a power of two (bank-of-"
            "line selection is a modulo)" % (self.name, self.banks),
        )
        _require(
            self.hit_latency >= 0,
            "hierarchy level %r: hit_latency must be >= 0" % self.name,
        )
        _require(
            self.dir_latency is None or 0 <= self.dir_latency <= self.hit_latency,
            "hierarchy level %r: dir_latency %s must lie in [0, hit_latency=%d]"
            % (self.name, self.dir_latency, self.hit_latency),
        )
        if self.sharing is Sharing.GLOBAL:
            _require(
                not self.bypass and not self.victim,
                "hierarchy level %r: bypass/victim are core-side options; a "
                "global level cannot be bypassed or act as a victim cache"
                % self.name,
            )
        if self.sharing is Sharing.CLUSTER:
            _require(
                self.cluster_size >= 2,
                "hierarchy level %r: sharing='cluster' needs cluster_size >= 2 "
                "(got %d); use sharing='private' for one instance per core"
                % (self.name, self.cluster_size),
            )
        else:
            _require(
                self.cluster_size == 0,
                "hierarchy level %r: cluster_size is only meaningful with "
                "sharing='cluster'" % self.name,
            )
        self.sets(line_size)  # raises if the geometry does not divide

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-ready form: every field, enums as values.

        Emitting *every* field (not just non-defaults) is what makes
        :meth:`HierarchySpec.to_dict` a canonical shape identity for
        scenario cache keys.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.value if isinstance(value, enum.Enum) else value
        return out

    @staticmethod
    def from_dict(data: dict) -> "CacheLevelSpec":
        known = {f.name for f in fields(CacheLevelSpec)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                "unknown cache level field(s) %s; known: %s"
                % (", ".join(unknown), ", ".join(sorted(known)))
            )
        if "name" not in data:
            raise ValueError("cache level needs a 'name' (e.g. 'l1', 'l2', 'l3')")
        return CacheLevelSpec(**dict(data))


@dataclass
class HierarchySpec:
    """An ordered list of cache levels, core-side first.

    ``label`` is a short display name for sweeps and reports ("shared-l3",
    "private-l2", ...); like a scenario's ``name`` it is cosmetic and does
    not contribute to cache identity.
    """

    levels: list[CacheLevelSpec] = field(default_factory=list)
    label: str = ""

    # -- derived views ---------------------------------------------------
    @property
    def core_levels(self) -> list[CacheLevelSpec]:
        """Private/cluster levels, elaborated inside each core's stack."""
        return [
            lv for lv in self.levels if lv.sharing is not Sharing.GLOBAL
        ]

    @property
    def shared_levels(self) -> list[CacheLevelSpec]:
        """Global levels; the first is the directory/coherence point."""
        return [lv for lv in self.levels if lv.sharing is Sharing.GLOBAL]

    @property
    def directory_level(self) -> CacheLevelSpec:
        return self.shared_levels[0]

    # -- validation ------------------------------------------------------
    def validate(self, line_size: int = 64, num_sms: int = 1) -> None:
        _require(
            bool(self.levels),
            "hierarchy needs at least one level (a global one: the "
            "directory/coherence point)",
        )
        seen: set[str] = set()
        for lv in self.levels:
            lv.validate(line_size)
            _require(
                lv.name not in seen,
                "duplicate hierarchy level name %r -- level names become "
                "component-tree nodes and must be unique" % lv.name,
            )
            seen.add(lv.name)
        shared = self.shared_levels
        _require(
            bool(shared),
            "hierarchy has no global level: the fabric needs a shared "
            "directory/coherence point (sharing='global') in front of DRAM",
        )
        first_global = self.levels.index(shared[0])
        for lv in self.levels[first_global:]:
            _require(
                lv.sharing is Sharing.GLOBAL,
                "hierarchy level %r (%s) appears after the first global "
                "level; core-side (private/cluster) levels must all precede "
                "the shared ones" % (lv.name, lv.sharing.value),
            )
        core = self.core_levels
        _require(
            bool(core),
            "hierarchy needs at least one core-side (private/cluster) level "
            "in front of the global directory -- the LSU issues into the "
            "core's stack; to model un-cached cores give the first level "
            "'bypass': true instead of removing it",
        )
        _require(
            not (core and core[0].victim),
            "hierarchy level %r: the first core-side level cannot be a "
            "victim cache (there is no level above it to evict into it)"
            % (core[0].name if core else ""),
        )
        for lv in core:
            if lv.sharing is Sharing.CLUSTER:
                _require(
                    num_sms % lv.cluster_size == 0,
                    "hierarchy level %r: cluster_size %d does not divide "
                    "num_sms %d" % (lv.name, lv.cluster_size, num_sms),
                )

    # -- construction ----------------------------------------------------
    @staticmethod
    def from_config(config) -> "HierarchySpec":
        """The Table 5.1 shape, derived from the flat ``SystemConfig``
        fields -- the spec the legacy knobs (``l1_size``, ``l2_banks``, ...)
        elaborate to when no explicit hierarchy is given."""
        return HierarchySpec(
            levels=[
                CacheLevelSpec(
                    name="l1",
                    sharing=Sharing.PRIVATE,
                    size=config.l1_size,
                    assoc=config.l1_assoc,
                    banks=config.l1_banks,
                    hit_latency=config.l1_hit_latency,
                ),
                CacheLevelSpec(
                    name="l2",
                    sharing=Sharing.GLOBAL,
                    size=config.l2_size,
                    assoc=config.l2_assoc,
                    banks=config.l2_banks,
                    hit_latency=config.l2_access_latency,
                    dir_latency=config.l2_dir_latency,
                ),
            ],
            label="default",
        )

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-ready form (see :meth:`CacheLevelSpec.to_dict`)."""
        return {
            "label": self.label,
            "levels": [lv.to_dict() for lv in self.levels],
        }

    @staticmethod
    def from_dict(data: dict) -> "HierarchySpec":
        if isinstance(data, HierarchySpec):
            return data
        if not isinstance(data, dict):
            raise ValueError(
                "hierarchy must be a dict with a 'levels' list, got %r" % (data,)
            )
        unknown = sorted(set(data) - {"levels", "label"})
        if unknown:
            raise ValueError(
                "unknown hierarchy field(s): %s (expected 'levels' and "
                "optionally 'label')" % ", ".join(unknown)
            )
        levels = data.get("levels")
        if not isinstance(levels, list) or not levels:
            raise ValueError("hierarchy needs a non-empty 'levels' list")
        return HierarchySpec(
            levels=[CacheLevelSpec.from_dict(dict(lv)) for lv in levels],
            label=str(data.get("label", "")),
        )

    @staticmethod
    def canonical_dict(data: dict) -> dict:
        """Round-trip ``data`` through the spec types: a stable, fully
        populated shape identity.  Scenario cache keys fold this in so two
        different shapes never share a cache entry while equivalent
        spellings (defaults omitted vs. written out) do."""
        out = HierarchySpec.from_dict(data).to_dict()
        del out["label"]  # cosmetic, like a scenario's display name
        return out


def example_shapes(config=None) -> "dict[str, dict]":
    """The three canonical non-default shapes (as config-override dicts).

    Shared by the figure grid (:func:`repro.experiments.figures.fig_hierarchy`),
    the benchmark rows, ``examples/hierarchy_shapes_study.py`` and the CI
    smoke job, so they all sweep the *same* machines:

    * ``shared-l3``  -- a 2x-capacity shared L3 inserted behind the L2;
    * ``private-l2`` -- the realistic private-L2 design point: a quarter-
      size fast L1 backed by a 256 KB private L2 per core, in front of the
      (renamed ``l3``) shared directory level -- the small L1 evicts into
      the private L2, so the stack's spill/deep-hit machinery is live;
    * ``l1-bypass``  -- the Table 5.1 machine with loads bypassing the L1
      (the scratchpad-heavy posture: global loads go straight to the L2).
    """
    base = HierarchySpec.from_config(config) if config is not None else None
    if base is None:
        from repro.sim.config import SystemConfig

        base = HierarchySpec.from_config(SystemConfig())
    l1, l2 = base.levels[0], base.levels[1]

    def lv(spec: CacheLevelSpec, **overrides) -> dict:
        out = spec.to_dict()
        out.update(overrides)
        return out

    return {
        "shared-l3": {
            "label": "shared-l3",
            "levels": [
                lv(l1),
                lv(l2),
                lv(
                    l2,
                    name="l3",
                    size=2 * l2.size,
                    hit_latency=l2.hit_latency + 14,
                    dir_latency=l2.effective_dir_latency + 4,
                ),
            ],
        },
        "private-l2": {
            "label": "private-l2",
            "levels": [
                lv(l1, size=max(l1.size // 4, 4096)),
                lv(
                    l1,
                    name="l2p",
                    sharing="private",
                    size=8 * l1.size,
                    banks=1,
                    hit_latency=8,
                ),
                lv(l2, name="l3"),
            ],
        },
        "l1-bypass": {
            "label": "l1-bypass",
            "levels": [lv(l1, bypass=True), lv(l2)],
        },
    }


# ---------------------------------------------------------------------------
# Elaborated tag-array machinery (shared by core-side and home-side levels)
# ---------------------------------------------------------------------------


class BankedTagArray:
    """N set-associative tag banks with per-bank single-issue serialization.

    The one implementation of the mechanics both the core-side stack and the
    home-side levels used to duplicate: bank-of-line selection, the
    one-request-per-bank-per-cycle reservation ladder, and fill-with-
    eviction.  Not itself a :class:`Component` -- the banks are attached as
    children of ``owner`` under the historical names (``bank0..bankN-1``),
    so component-tree paths and per-bank statistics stay exactly where
    they were.
    """

    __slots__ = ("banks", "num_banks", "_free")

    def __init__(
        self,
        owner: Component,
        num_sets: int,
        assoc: int,
        num_banks: int = 1,
    ) -> None:
        self.num_banks = num_banks
        self.banks = [
            SetAssocCache(num_sets, assoc, name="bank%d" % i)
            for i in range(num_banks)
        ]
        for bank in self.banks:
            owner.add_child(bank)
        self._free = [0] * num_banks

    # -- geometry --------------------------------------------------------
    def bank_of(self, line: int) -> int:
        return line % self.num_banks

    # -- serialization ladder -------------------------------------------
    def serialize(self, bank: int, now: int) -> int:
        """Reserve ``bank`` at or after ``now``; returns the queueing delay
        (0 when the bank is idle).  One request per bank per cycle."""
        start = now
        prev = self._free[bank]
        if prev > start:
            start = prev
        self._free[bank] = start + 1
        return start - now

    # -- tag operations --------------------------------------------------
    def lookup(self, line: int, touch: bool = True):
        return self.banks[line % self.num_banks].lookup(line, touch)

    def contains(self, line: int) -> bool:
        return self.banks[line % self.num_banks].contains(line)

    def fill(self, line: int, state: LineState = LineState.VALID):
        """Insert ``line``; returns the evicted ``(line, state)`` or None."""
        return self.banks[line % self.num_banks].insert(line, state)

    def invalidate(self, line: int):
        return self.banks[line % self.num_banks].invalidate(line)

    def occupancy(self) -> int:
        return sum(bank.occupancy() for bank in self.banks)


class SharedCacheLevel(Component):
    """A global level *behind* the directory level (an L3, L4, ...).

    The directory level owns the network protocol; deeper shared levels sit
    on its backside and are consulted latency-style on a directory miss:
    the requesting bank pays the NoC round trip to this level's home bank,
    the bank's serialization ladder, and the level's access latency.  Banks
    are placed on mesh nodes by the mesh's round-robin distributor, offset
    per depth so consecutive levels do not pile onto the same nodes.
    """

    def __init__(
        self,
        spec: CacheLevelSpec,
        line_size: int,
        mesh,
        depth: int = 1,
    ) -> None:
        Component.__init__(self, spec.name)
        self.spec = spec
        self.mesh = mesh
        self.tags = BankedTagArray(
            self, spec.sets(line_size), spec.assoc, spec.banks
        )
        #: home mesh node per bank (see Mesh.distribute_banks)
        self.bank_node = mesh.distribute_banks(spec.banks, offset=depth)
        self.hits = self.stat_counter("level_hits")
        self.misses = self.stat_counter("level_misses")

    def node_of_line(self, line: int) -> int:
        return self.bank_node[line % self.spec.banks]

    def probe(
        self, line: int, from_node: int, return_node: int, start: int, now: int
    ) -> tuple[int, bool]:
        """Look up ``line`` arriving from ``from_node`` at cycle ``start``.

        Returns ``(delay_from_now, hit)``.  The delay covers the NoC leg
        from the previous level's home bank, bank serialization, the access
        latency and -- on a hit -- the response's *direct* mesh trip back to
        ``return_node`` (the directory bank that issued the backside fetch;
        responses do not retrace intermediate levels).  On a miss the line
        is filled (the response from below will pass through on its way up
        -- the chain is inclusive).
        """
        bank = line % self.spec.banks
        home = self.bank_node[bank]
        travel = self.mesh.hops(from_node, home) * self.mesh.hop_latency
        arrive = start + travel
        queued = self.tags.serialize(bank, arrive)
        if self.tags.lookup(line) is not None:
            self.hits.value += 1
            back = self.mesh.hops(home, return_node) * self.mesh.hop_latency
            done = arrive + queued + self.spec.hit_latency + back
            return done - now, True
        self.misses.value += 1
        self.tags.fill(line)
        # The miss pays the tag lookup (directory portion) before the
        # request continues downward; the return trip rides the response.
        ready = arrive + queued + self.spec.effective_dir_latency
        return ready - now, False

    def warm(self, lines) -> None:
        for line in lines:
            self.tags.fill(line)
