"""Constructors for connectivity pairs over powerset lattices, plus the
named fixture registry used by the tests and the CLI.

All powerset-based constructors index the lattice so that element ``i``
IS the vertex subset with bitmask ``i``; order is subset inclusion.  The
vertex count is capped (default 5, so a 32-element lattice) because the
lattice and every family over it grow exponentially; fixtures that need
more pass an explicit cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, Sequence

from .config import DEFAULT_VERTEX_CAP
from .errors import FormatError, GuardExceeded, PreconditionError
from .connectivity import ConnectivityPair
from .exterior import exterior_as_absolute
from .poset import (FinitePoset, bits_of, check_count, component_masks, downset_masks, inclusion_rows,
                    is_integer, mask_of, submasks)


def _points_in_range(n: int, sets: Iterable[Iterable[int]], what: str) -> list:
    """``sets`` as tuples, read once, after a FormatError naming the first
    member outside 0..n-1, before any mask is built."""
    sets = [tuple(s) for s in sets]
    for v in (v for s in sets for v in s):
        if not (is_integer(v) and 0 <= v < n):
            raise FormatError(f"{what} {v} out of range")
    return sets


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple  # sorted (a, b) tuples with a < b

    def __post_init__(self):
        check_count(self.n, "vertex count")
        edges = [tuple(e) for e in self.edges]
        for a, b in edges:
            if a == b:
                raise FormatError("self-loops are not allowed")
            if not (is_integer(a) and is_integer(b) and 0 <= a < self.n and 0 <= b < self.n):
                raise FormatError(f"edge ({a},{b}) out of range")
        object.__setattr__(self, "edges", tuple(sorted(tuple(sorted(e)) for e in edges)))

    @staticmethod
    def from_edges(n: int, edges: Iterable) -> "Graph":
        return Graph(n, edges)

    def adjacency(self) -> list:
        adj = [0] * self.n
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    def is_connected_set(self, vmask: int) -> bool:
        return len(component_masks(self.adjacency(), vmask)) == 1


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set 0..n-1 with a list of hyperedges (vertex subsets)."""

    n: int
    hyperedges: tuple  # sorted tuples of vertices

    def __post_init__(self):
        check_count(self.n, "vertex count")
        hyperedges = _points_in_range(self.n, self.hyperedges, "hyperedge vertex")
        object.__setattr__(self, "hyperedges", tuple(sorted(tuple(sorted(set(e))) for e in hyperedges)))

    def is_connected_set(self, vmask: int) -> bool:
        """Non-empty, and one chain-component of the hyperedges inside the
        set covers all of it.  Chains are sequences of hyperedges lying in
        the set in which consecutive edges intersect; so the set is
        connected when those hyperedges cover it and link its vertices."""
        adjacency = [0] * self.n
        covered = 0
        for e in map(mask_of, self.hyperedges):
            if e & ~vmask == 0:
                covered |= e
                for v in bits_of(e):
                    adjacency[v] |= e
        return covered == vmask != 0 and len(component_masks(adjacency, vmask)) == 1


def _check_cap(vertices: int, cap: int) -> None:
    check_count(vertices, "vertex count")
    if vertices > cap:
        raise GuardExceeded(
            f"{vertices} vertices exceeds the cap of {cap} (the lattice is the powerset)"
        )


def _powerset_pair(n: int, connected: Callable[[int], bool], cap: int) -> ConnectivityPair:
    """(powerset of n points, the subsets that ``connected`` accepts)."""
    _check_cap(n, cap)
    lattice = FinitePoset.powerset_lattice(n)
    return ConnectivityPair(lattice, frozenset(filter(connected, range(1 << n))))


def graph_connectivity_pair(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> ConnectivityPair:
    """(powerset of vertices, non-empty connected vertex sets)."""
    return _powerset_pair(g.n, g.is_connected_set, cap)


def hypergraph_connectivity_pair(h: Hypergraph, cap: int = DEFAULT_VERTEX_CAP) -> ConnectivityPair:
    """(powerset of vertices, hyperedge-chain-connected sets)."""
    return _powerset_pair(h.n, h.is_connected_set, cap)


def is_k_connected_set(g: Graph, vmask: int, k: int) -> bool:
    """Connected, and still connected and non-empty after deleting any
    k-1 or fewer vertices.

    Read literally this admits small sets: a two-vertex edge minus one
    vertex is a non-empty connected singleton, so edges are 2-connected.
    """
    if k < 1:
        raise PreconditionError("k must be a positive integer")
    adjacency = g.adjacency()
    return all(len(component_masks(adjacency, vmask & ~removed)) == 1
               for removed in submasks(vmask) if removed.bit_count() < k)


def k_connectivity_pair(g: Graph, k: int, cap: int = DEFAULT_VERTEX_CAP) -> ConnectivityPair:
    """(powerset of vertices, k-connected vertex sets)."""
    return _powerset_pair(g.n, lambda m: is_k_connected_set(g, m, k), cap)


def topology_pair(n: int, opens: Sequence[Iterable[int]], cap: int = DEFAULT_VERTEX_CAP) -> ConnectivityPair:
    """(powerset of points, open sets); the kernel map is topological
    interior."""
    _check_cap(n, cap)
    masks = sorted({mask_of(o) for o in _points_in_range(n, opens, "open set point")})
    full = (1 << n) - 1
    mset = set(masks)
    if 0 not in mset or full not in mset:
        raise FormatError("a topology must contain the empty set and the whole space")
    for a in masks:
        for b in masks:
            if a | b not in mset or a & b not in mset:
                raise FormatError("open sets must be closed under union and intersection")
    lattice = FinitePoset.powerset_lattice(n)
    return ConnectivityPair(lattice, frozenset(masks))


def topological_connected_sets_pair(n: int, opens: Sequence[Iterable[int]], cap: int = DEFAULT_VERTEX_CAP) -> ConnectivityPair:
    """(powerset of points, connected sets of the topology): sets that no
    two disjoint-on-them open sets can split."""
    topo = topology_pair(n, opens, cap)
    masks = sorted(topo.connected)

    def connected(smask: int) -> bool:
        if not smask:
            return False
        for u in masks:
            for v in masks:
                if u & v & smask:
                    continue
                if smask & ~(u | v):
                    continue
                if u & smask and v & smask:
                    return False
        return True

    return _powerset_pair(n, connected, cap)


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------

def forest_poset_check(p: FinitePoset) -> bool:
    """Whether the poset is a disjoint union of root-at-top trees, computed
    as: every mail is a chain (no element has an incomparable mail-mate).
    ``tests/test_generators.py`` checks it against the three other
    formulations, the ``oracle_forest_*`` functions of ``tests/conftest.py``."""
    return all(p.mail_mates[a] & ~(p.up[a] | p.down[a]) == 0 for a in range(p.n))


def downset_lattice_pair(p: FinitePoset) -> ConnectivityPair:
    """(lattice of down-closed subsets ordered by inclusion, principal
    down-sets).  For forest posets this pair is a separated Serra
    connectivity, hence absolute.  The converse, that the pair is
    separated, Serra or absolute only for forests, is not proved here; it
    holds on all 2,450 posets with 1 to 7 elements."""
    if p.n > 20:
        raise GuardExceeded("down-set lattice construction is capped at 2^20 subsets")
    downsets = downset_masks(p.n, p.down)
    downsets.sort(key=lambda m: (m.bit_count(), tuple(bits_of(m))))
    index = {m: i for i, m in enumerate(downsets)}
    lattice = FinitePoset(len(downsets), inclusion_rows(downsets, downsets))
    principal = frozenset(index[p.down[x]] for x in range(p.n))
    return ConnectivityPair(lattice, principal)


def _divisors(n: int) -> list:
    """The divisors of n in increasing order, once n is an integer of at
    least 1 (every integer divides 0)."""
    if not is_integer(n):
        raise FormatError(f"divisor base must be an integer, got {n!r}")
    if n < 1:
        raise PreconditionError(f"divisor base must be at least 1, got {n}")
    return [d for d in range(1, n + 1) if n % d == 0]


def divisor_lattice(n: int = 360) -> FinitePoset:
    """Divisors of n under divisibility; n itself is the top element."""
    divisors = _divisors(n)
    rows = []
    for a in divisors:
        row = 0
        for j, b in enumerate(divisors):
            if b % a == 0:
                row |= 1 << j
        rows.append(row)
    return FinitePoset(len(divisors), tuple(rows))


def prime_power_divisor_indices(n: int = 360) -> frozenset:
    """Indices of the divisors of n that are non-trivial prime powers."""
    divisors = _divisors(n)

    def is_prime_power(d: int) -> bool:
        if d < 2:
            return False
        for q in range(2, d + 1):
            if d % q == 0:
                while d % q == 0:
                    d //= q
                return d == 1
        return False

    return frozenset(i for i, d in enumerate(divisors) if is_prime_power(d))


# ---------------------------------------------------------------------------
# fixture registry
# ---------------------------------------------------------------------------

def _exa_a_poset() -> FinitePoset:
    # seven elements, numbered 1..7 in the figures, here 0..6
    return FinitePoset.from_cover_pairs(
        7, [(0, 1), (0, 2), (3, 4), (3, 5), (1, 4), (2, 4), (2, 5), (4, 6), (5, 6)]
    )


def _m3() -> FinitePoset:
    return FinitePoset.from_cover_pairs(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def _n5() -> FinitePoset:
    # pentagon: 0 < 1 < 2 < 4 and 0 < 3 < 4
    return FinitePoset.from_cover_pairs(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def _exa_n_pair() -> ConnectivityPair:
    lattice = FinitePoset.from_cover_pairs(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    return ConnectivityPair(lattice, frozenset({1, 2, 3, 5}))


def _exa_x_pair() -> ConnectivityPair:
    # bottom, three atoms, their join, then a separate top above it
    lattice = FinitePoset.from_cover_pairs(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5)])
    return ConnectivityPair(lattice, frozenset({1, 2, 3}))


def _two_diamond_graph() -> Graph:
    return Graph.from_edges(
        7, [(0, 1), (1, 3), (3, 2), (2, 0), (3, 4), (4, 6), (6, 5), (5, 3)]
    )


def _exa_g_forest() -> FinitePoset:
    # one two-leaf tree plus a disjoint two-chain
    return FinitePoset.from_cover_pairs(5, [(0, 2), (1, 2), (3, 4)])


def _exa_ab_pair() -> ConnectivityPair:
    # a non-distributive complete lattice with a freshly attached bottom;
    # the old elements are the connectivity
    base = _n5()
    n = base.n
    rows = [(1 << (n + 1)) - 1]  # new bottom below everything
    for a in range(n):
        rows.append(base.up[a] << 1)
    lattice = FinitePoset(n + 1, tuple(rows))
    return ConnectivityPair(lattice, frozenset(range(1, n + 1)))


_FIXTURES: Dict[str, object] = {}


def _register(name: str, builder, description: str) -> None:
    _FIXTURES[name] = (builder, description)


_register("exaA", _exa_a_poset, "7-element connected chainmail that is no connectivity space's poset of connected sets")
_register("M3", _m3, "diamond lattice: bottom, three atoms, top")
_register("N5", _n5, "pentagon lattice: a 2-chain and a 1-chain between bottom and top")
_register("exaB", lambda: graph_connectivity_pair(Graph.from_edges(3, [(0, 1), (1, 2)])), "connected sets of the 3-path graph over its powerset")
_register("exaC", lambda: topological_connected_sets_pair(3, [[], [0], [0, 1], [0, 1, 2]]), "connected sets of a 3-point topological space")
_register("exaE", lambda: FinitePoset.powerset_lattice(3), "closed sets of a discrete 3-point space (a Boolean lattice)")
_register("exaG", _exa_g_forest, "forest poset: a two-leaf tree plus a disjoint 2-chain")
_register("exaH", lambda: hypergraph_connectivity_pair(Hypergraph(3, ((0,), (1,), (0, 1, 2)))), "hypergraph connectivity; one vertex lies in no singleton hyperedge")
_register("exaI", lambda: topology_pair(2, [[], [0], [0, 1]]), "two-point topology whose kernel map is interior")
_register("sierpinski", lambda: topology_pair(2, [[], [0], [0, 1]]), "alias of exaI")
_register("exaJ", lambda: k_connectivity_pair(_two_diamond_graph(), 2, cap=7), "2-connected sets of two diamonds glued at a vertex")
_register("exaK", lambda: downset_lattice_pair(_exa_g_forest()), "down-set lattice of a forest with principal down-sets as connectivity")
_register("exaM", lambda: ConnectivityPair(FinitePoset.powerset_lattice(3), frozenset(m for m in range(8) if (m & ~1).bit_count() == 1)), "sets whose part outside a fixed subset is a singleton")
_register("exaN", _exa_n_pair, "chainmail inside a lattice that is not a subchainmail of it")
_register("exaT", lambda: ConnectivityPair(divisor_lattice(360), prime_power_divisor_indices(360)), "divisors of 360 under divisibility with prime powers as connectivity")
_register("exaU", lambda: ConnectivityPair(FinitePoset.powerset_lattice(3), frozenset({1, 2, 4})), "Boolean lattice with its atoms as connectivity")
_register("exaV", lambda: ConnectivityPair(FinitePoset.powerset_lattice(3), frozenset({3, 5, 6})), "three pairwise-overlapping doubletons: an antichain connectivity")
_register("exaW", lambda: ConnectivityPair(FinitePoset.powerset_lattice(3), frozenset({3, 6})), "two overlapping doubletons: a separated, non-typical connectivity")
_register("exaX", _exa_x_pair, "three atoms under a coatom and top: typical but neither separated nor saturated")
_register("exaAA", lambda: exterior_as_absolute(_exa_a_poset()), "the exterior of exaA as an absolute connectivity lattice (not a frame)")
_register("exaAB", _exa_ab_pair, "a complete lattice over a new bottom; old elements are the connectivity")


def fixture_names() -> list:
    return sorted(_FIXTURES)


def fixture_description(name: str) -> str:
    if name not in _FIXTURES:
        raise FormatError(f"unknown fixture {name!r}")
    return _FIXTURES[name][1]


@lru_cache(maxsize=None)
def named_fixture(name: str):
    """The registered structure for a fixture name: a FinitePoset or a
    ConnectivityPair."""
    if name not in _FIXTURES:
        raise FormatError(f"unknown fixture {name!r}; see `chainmail fixtures`")
    return _FIXTURES[name][0]()
