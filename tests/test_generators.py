"""Powerset-pair constructors, forest checks, fixture registry."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from chainmail.connectivity import ConnectivityPair, borger_implication_check, classify, is_subchainmail_of
from chainmail.enumeration import enumerate_kind
from chainmail.errors import FormatError, GuardExceeded, PreconditionError
from chainmail.exterior import downclosed_subchainmails, exterior
from chainmail.generators import (
    Graph,
    Hypergraph,
    divisor_lattice,
    downset_lattice_pair,
    fixture_description,
    fixture_names,
    forest_poset_check,
    graph_connectivity_pair,
    hypergraph_connectivity_pair,
    is_k_connected_set,
    k_connectivity_pair,
    named_fixture,
    prime_power_divisor_indices,
    topological_connected_sets_pair,
    topology_pair,
)
from chainmail.poset import FinitePoset, bits_of, downset_masks

from conftest import (
    oracle_forest_covers,
    oracle_forest_trees,
    oracle_forest_upsets,
    oracle_hypergraph_connected,
    oracle_inclusion_rows,
)


def brute_connected(g: Graph, members) -> bool:
    members = set(members)
    if not members:
        return False
    start = min(members)
    comp = {start}
    frontier = [start]
    adjacency = {v: set() for v in range(g.n)}
    for a, b in g.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    while frontier:
        x = frontier.pop()
        for y in adjacency[x] & members:
            if y not in comp:
                comp.add(y)
                frontier.append(y)
    return comp == members


def all_topologies(n):
    """Every topology on n points, as a sorted tuple of open-set masks:
    {∅, X} and every family reached from it by adding one set and closing
    under ∪ and ∩."""
    full = (1 << n) - 1

    def close(opens):
        opens = set(opens)
        while True:
            new = {a | b for a in opens for b in opens} | {a & b for a in opens for b in opens}
            if new <= opens:
                return tuple(sorted(opens))
            opens |= new

    seen, frontier = set(), [close({0, full})]
    while frontier:
        opens = frontier.pop()
        if opens not in seen:
            seen.add(opens)
            frontier.extend(close(opens + (s,)) for s in range(full + 1) if s not in opens)
    return sorted(seen)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for pick in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if pick >> i & 1])


class TestGraphPairs:
    def test_path_graph_connected_sets(self):
        pair = graph_connectivity_pair(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert sorted(pair.connected) == [0b001, 0b010, 0b011, 0b100, 0b110, 0b111]

    def test_connected_sets_match_oracle(self):
        for g in all_graphs(4):
            pair = graph_connectivity_pair(g)
            for m in range(16):
                assert (m in pair.connected) == brute_connected(g, {v for v in range(4) if m >> v & 1})

    def test_edgeless_two_vertices(self):
        pair = graph_connectivity_pair(Graph.from_edges(2, []))
        assert sorted(pair.connected) == [0b01, 0b10]
        report = classify(pair)
        assert report.serra and report.separated

    def test_single_vertex_absolute(self):
        report = classify(graph_connectivity_pair(Graph.from_edges(1, [])))
        assert report.absolute

    def test_always_serra_and_separated_iff_edgeless(self):
        for n in (1, 2, 3):
            for g in all_graphs(n):
                report = classify(graph_connectivity_pair(g))
                assert report.serra
                assert report.separated == (len(g.edges) == 0)

    def test_vertex_cap(self):
        with pytest.raises(GuardExceeded):
            graph_connectivity_pair(Graph.from_edges(6, []))

    def test_rejects_self_loop(self):
        with pytest.raises(FormatError, match="^self-loops are not allowed$"):
            Graph.from_edges(2, [(1, 1)])

    @pytest.mark.parametrize("edge", [(0, 2), (-1, 0), (0, True), (0, 1.0), (1, True), (2, 2), (True, 1.0)])
    def test_rejects_endpoints_out_of_range(self, edge):
        # a bool or float endpoint is not stored as if it were an integer
        with pytest.raises(FormatError, match=f"^edge {re.escape(str(edge).replace(' ', ''))} out of range$"):
            Graph(2, [edge])


class TestHypergraphPairs:
    def test_graph_as_hypergraph(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        h = Hypergraph(3, ((0,), (1,), (2,), (0, 1), (1, 2)))
        assert hypergraph_connectivity_pair(h).connected == graph_connectivity_pair(g).connected

    def test_single_wide_hyperedge(self):
        pair = hypergraph_connectivity_pair(Hypergraph(3, ((0, 1, 2),)))
        assert sorted(pair.connected) == [0b111]

    def test_no_hyperedges(self):
        pair = hypergraph_connectivity_pair(Hypergraph(2, ()))
        assert pair.connected == frozenset()

    @pytest.mark.parametrize("vertex", [-1, 2, 0.0, True])
    def test_rejects_vertices_out_of_range(self, vertex):
        # a float or bool vertex is not stored as if it were an integer
        with pytest.raises(FormatError, match=f"^hyperedge vertex {re.escape(str(vertex))} out of range$"):
            Hypergraph(2, [(vertex,)])

    def test_connected_sets_match_chain_cover_oracle(self):
        rng = random.Random(7)
        cases = 0
        for _ in range(400):
            n = rng.randint(0, 6)
            density = rng.random()
            edges = [[v for v in range(n) if rng.random() < density]
                     for _ in range(rng.randint(0, 6))]
            h = Hypergraph(n, tuple(map(tuple, edges)))
            for vmask in range(1 << n):
                assert h.is_connected_set(vmask) == oracle_hypergraph_connected(h, vmask), (h, vmask)
                cases += 1
        assert cases > 5000

    def test_typical_on_sample_hypergraphs(self):
        samples = [
            Hypergraph(3, ((0,), (1,), (0, 1, 2))),
            Hypergraph(3, ((0, 1), (1, 2))),
            Hypergraph(4, ((0, 1), (1, 2), (3,))),
            Hypergraph(2, ()),
        ]
        for h in samples:
            report = classify(hypergraph_connectivity_pair(h))
            assert report.typical
        # CS2 failure surfaces as a saturation failure when a vertex is uncovered
        uncovered = classify(hypergraph_connectivity_pair(Hypergraph(3, ((0,), (1,), (0, 1, 2)))))
        assert not uncovered.cl2


class TestKConnectivity:
    def test_k1_is_plain_connectivity(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert k_connectivity_pair(g, 1).connected == graph_connectivity_pair(g).connected

    def test_k3_boundary_convention(self):
        # deleting one vertex from an edge leaves a singleton: connected and
        # non-empty, so edges count as 2-connected under the literal reading
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        pair = k_connectivity_pair(g, 2)
        assert sorted(pair.connected) == [0b011, 0b101, 0b110, 0b111]
        assert not is_k_connected_set(g, 0b001, 2)

    def test_two_diamond_fixture(self):
        pair = named_fixture("exaJ")
        d1, d2 = 0b0001111, 0b1111000
        assert d1 in pair.connected
        assert d2 in pair.connected
        assert (d1 | d2) not in pair.connected
        assert is_subchainmail_of(pair.lattice, pair.connected)

    def test_positive_k_required(self):
        # True is not taken for k = 1, and a float is not an integer
        g = Graph.from_edges(2, [(0, 1)])
        for k in (0, -1, True, 1.5):
            with pytest.raises(PreconditionError, match="^k must be a positive integer$"):
                is_k_connected_set(g, 0b11, k)
            with pytest.raises(PreconditionError, match="^k must be a positive integer$"):
                k_connectivity_pair(g, k)

    @pytest.mark.parametrize("vmask", [-1, 0b100, True, 1.5])
    def test_vertex_mask_outside_the_vertices_is_refused(self, vmask):
        # -1 would walk its submasks forever, and 0b100 names a third vertex
        # of a graph with two
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(IndexError, match=f"^vertex mask {re.escape(repr(vmask))} out of range$"):
            is_k_connected_set(g, vmask, 1)
        assert [is_k_connected_set(g, m, 1) for m in range(4)] == [False, True, True, True]

    @pytest.mark.parametrize("vmask", [-1, 0b100, True, 1.5])
    @pytest.mark.parametrize("graph,connected", [
        (Graph(2, [(0, 1)]), [False, True, True, True]),
        (Hypergraph(2, [(0, 1)]), [False, False, False, True]),
    ], ids=["graph", "hypergraph"])
    def test_connected_set_tests_refuse_a_vertex_mask_outside_the_vertices(self, graph, connected, vmask):
        # -1 and 0b100 raised a bare IndexError from the graph's adjacency
        # list, and a hypergraph read them as not connected; True was read
        # as {0}, and 1.5 raised a TypeError
        with pytest.raises(IndexError, match=f"^vertex mask {re.escape(repr(vmask))} out of range$"):
            graph.is_connected_set(vmask)
        assert [graph.is_connected_set(m) for m in range(4)] == connected


@pytest.mark.parametrize("build,error,message", [
    pytest.param(lambda: FinitePoset.chain(-1), FormatError, "element count must be non-negative", id="chain"),
    pytest.param(lambda: FinitePoset.powerset_lattice(-1), FormatError, "point count must be non-negative",
                 id="powerset"),
    pytest.param(lambda: Graph(-1, []), FormatError, "vertex count must be non-negative", id="graph"),
    pytest.param(lambda: Hypergraph(-2, []), FormatError, "vertex count must be non-negative", id="hypergraph"),
    pytest.param(lambda: topology_pair(-1, [[]]), FormatError, "vertex count must be non-negative", id="topology"),
    pytest.param(lambda: divisor_lattice(0), PreconditionError, "divisor base must be at least 1, got 0",
                 id="divisors-of-0"),
    pytest.param(lambda: divisor_lattice(-5), PreconditionError, "divisor base must be at least 1, got -5",
                 id="divisors-of-minus-5"),
    pytest.param(lambda: prime_power_divisor_indices(0), PreconditionError, "divisor base must be at least 1, got 0",
                 id="prime-powers-of-0"),
    # a bool is not taken for 0 or 1, and a float is not truncated
    pytest.param(lambda: FinitePoset(True, (1,)), FormatError, "element count must be an integer, got True",
                 id="poset-of-True"),
    pytest.param(lambda: FinitePoset.chain(True), FormatError, "element count must be an integer, got True",
                 id="chain-of-True"),
    pytest.param(lambda: FinitePoset.antichain(True), FormatError, "element count must be an integer, got True",
                 id="antichain-of-True"),
    pytest.param(lambda: divisor_lattice(True), FormatError, "divisor base must be an integer, got True",
                 id="divisors-of-True"),
    pytest.param(lambda: Graph(2.0, []), FormatError, "vertex count must be an integer, got 2.0", id="graph-of-2.0"),
    pytest.param(lambda: FinitePoset.chain(2.0), FormatError, "element count must be an integer, got 2.0",
                 id="chain-of-2.0"),
    pytest.param(lambda: FinitePoset.antichain(2.0), FormatError, "element count must be an integer, got 2.0",
                 id="antichain-of-2.0"),
    pytest.param(lambda: FinitePoset.powerset_lattice(2.0), FormatError, "point count must be an integer, got 2.0",
                 id="powerset-of-2.0"),
    pytest.param(lambda: FinitePoset.from_leq_pairs(2.0, []), FormatError,
                 "element count must be an integer, got 2.0", id="leq-pairs-of-2.0"),
    pytest.param(lambda: divisor_lattice(2.5), FormatError, "divisor base must be an integer, got 2.5",
                 id="divisors-of-2.5"),
    pytest.param(lambda: FinitePoset(2, (1,)), FormatError, "up-set table length does not match n",
                 id="poset-with-short-table"),
    pytest.param(lambda: enumerate_kind("posets", -1), PreconditionError, "n must be non-negative",
                 id="enumerate-minus-1"),
    # the ends of a leq pair are elements: True is not read as 1, and a
    # float is refused with the package's error, not a bare TypeError
    pytest.param(lambda: FinitePoset.from_leq_pairs(3, [(True, 2)]), FormatError, "bad leq pair: [True, 2]",
                 id="leq-pair-with-True"),
    pytest.param(lambda: FinitePoset.from_leq_pairs(3, [(0.0, 2)]), FormatError, "bad leq pair: [0.0, 2]",
                 id="leq-pair-with-0.0"),
    pytest.param(lambda: FinitePoset.from_leq_pairs(3, [(0, 1.5)]), FormatError, "bad leq pair: [0, 1.5]",
                 id="leq-pair-with-1.5"),
    pytest.param(lambda: fixture_description("nope"), FormatError, "unknown fixture 'nope'",
                 id="fixture-description"),
    # a resource guard is a count too: a TMD limit of True raised "exceeds
    # True sets", "9" a bare TypeError and -1 fired as a guard; a cap of 2.5
    # built a pair, and True was read as 1
    pytest.param(lambda: exterior(FinitePoset.chain(2), limit=True), FormatError,
                 "limit must be an integer, got True", id="limit-True"),
    pytest.param(lambda: exterior(FinitePoset.chain(2), limit=2.5), FormatError,
                 "limit must be an integer, got 2.5", id="limit-2.5"),
    pytest.param(lambda: exterior(FinitePoset.chain(2), limit="9"), FormatError,
                 "limit must be an integer, got '9'", id="limit-str-9"),
    pytest.param(lambda: exterior(FinitePoset.chain(2), limit=-1), FormatError,
                 "limit must be non-negative", id="limit-minus-1"),
    pytest.param(lambda: graph_connectivity_pair(Graph(2, [(0, 1)]), cap=True), FormatError,
                 "cap must be an integer, got True", id="cap-True"),
    pytest.param(lambda: graph_connectivity_pair(Graph(2, [(0, 1)]), cap=2.5), FormatError,
                 "cap must be an integer, got 2.5", id="cap-2.5"),
    pytest.param(lambda: graph_connectivity_pair(Graph(2, [(0, 1)]), cap="9"), FormatError,
                 "cap must be an integer, got '9'", id="cap-str-9"),
    pytest.param(lambda: graph_connectivity_pair(Graph(2, [(0, 1)]), cap=-1), FormatError,
                 "cap must be non-negative", id="cap-minus-1"),
])
def test_negative_sizes_are_refused(build, error, message):
    # refused with the package's error, not a bare ValueError from a
    # negative shift or a TypeError from a float, and not an empty or
    # one-element structure
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: downclosed_subchainmails(FinitePoset.antichain(21)),
                 "down-set enumeration is capped at 2^20 subsets", id="downclosed-subchainmails"),
    pytest.param(lambda: downset_lattice_pair(FinitePoset.antichain(21)),
                 "down-set lattice construction is capped at 2^20 subsets", id="downset-lattice-pair"),
    pytest.param(lambda: borger_implication_check(FinitePoset.chain(21), ()),
                 "too many sinks for the orthogonality-closure check", id="sinks"),
    pytest.param(lambda: borger_implication_check(FinitePoset.antichain(21), ()),
                 "too many subsets for the sink-closure checks", id="connected-subsets"),
])
def test_guards_refuse_21_elements(build, message):
    # 2^21 subsets or sinks: refused before any is listed
    with pytest.raises(GuardExceeded, match=f"^{re.escape(message)}$"):
        build()


class TestTopologyPairs:
    def test_discrete_two_points_is_degenerate(self):
        pair = topology_pair(2, [[], [0], [1], [0, 1]])
        assert classify(pair).degenerate

    def test_sierpinski_profile(self):
        report = classify(named_fixture("exaI"))
        assert report.kernel and not report.cl2

    def test_indiscrete_kernel(self):
        pair = topology_pair(2, [[], [0, 1]])
        report = classify(pair)
        assert report.kernel
        from chainmail.connectivity import kernel

        assert kernel(pair, 0b01) == 0

    def test_rejects_non_topology(self):
        with pytest.raises(FormatError):
            topology_pair(2, [[0], [0, 1]])  # missing empty set
        with pytest.raises(FormatError):
            topology_pair(3, [[], [0], [1], [0, 1, 2]])  # missing the union {0,1}

    @pytest.mark.parametrize("build", [topology_pair, topological_connected_sets_pair])
    @pytest.mark.parametrize("opens,point", [([[], [-1], [0, 1]], -1), ([[], [0], [0, 1], [0, 1, 5]], 5),
                                             ([[], [0.0], [0, 1]], 0.0), ([[], [True], [0, 1]], True)])
    def test_rejects_points_out_of_range(self, build, opens, point):
        with pytest.raises(FormatError, match=f"^open set point {point} out of range$"):
            build(2, opens)

    def test_connected_sets_of_point_space(self):
        pair = topological_connected_sets_pair(3, [[], [0], [0, 1], [0, 1, 2]])
        report = classify(pair)
        assert report.serra
        # the opens are nested, so no two of them are disjoint on a
        # non-empty set while covering it: every non-empty set is connected
        assert pair.connected == frozenset(range(1, 8))

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29), (4, 355)])
    def test_connected_sets_are_the_path_connected_sets(self, n, count):
        # on a finite space, connected = path-connected = connected in the
        # comparability graph of the specialization preorder, whose points
        # x and y are comparable when one lies in the least open set of the
        # other; the topologies are OEIS A000798
        topologies = all_topologies(n)
        assert len(topologies) == count
        for opens in topologies:
            least = [min((u for u in opens if u >> x & 1), key=int.bit_count) for x in range(n)]
            comparability = Graph.from_edges(n, [(x, y) for x, y in itertools.combinations(range(n), 2)
                                                 if least[x] >> y & 1 or least[y] >> x & 1])
            pair = topological_connected_sets_pair(n, [list(bits_of(u)) for u in opens])
            expected = {m for m in range(1 << n) if brute_connected(comparability, bits_of(m))}
            assert pair.connected == expected, opens


class TestForests:
    def test_fixture_forest(self):
        assert forest_poset_check(named_fixture("exaG"))

    def test_m3_is_not_a_forest(self):
        assert not forest_poset_check(named_fixture("M3"))

    def test_chain_is_a_forest(self):
        assert forest_poset_check(FinitePoset.chain(4))

    def test_four_conditions_agree_exhaustively(self, poset_corpus):
        # the mail-chain test of forest_poset_check against the other three
        # formulations, which are the conftest oracles
        for n in range(7):
            for p in poset_corpus[n]:
                forest = forest_poset_check(p)
                assert oracle_forest_covers(p) == oracle_forest_upsets(p) == forest, p
                assert oracle_forest_trees(p) == forest, p

    def test_forest_downset_pairs_are_absolute(self, poset_corpus):
        # and only they: the down-set pair is separated, Serra and absolute
        # exactly when p is a forest; the forests count as OEIS A000081,
        # shifted by one
        forests = []
        for n in range(1, 7):
            forests.append(0)
            for p in poset_corpus[n]:
                report = classify(downset_lattice_pair(p))
                forest = forest_poset_check(p)
                assert report.separated == report.serra == report.absolute == forest, p
                forests[-1] += forest
        assert forests == [1, 2, 4, 9, 20, 48]

    def test_downset_lattice_matches_the_pairwise_inclusion_order(self, small_poset_corpus):
        for posets in small_poset_corpus.values():
            for p in posets:
                downsets = sorted(downset_masks(p.n, p.down),
                                  key=lambda m: (m.bit_count(), tuple(bits_of(m))))
                lattice = downset_lattice_pair(p).lattice
                assert lattice.up == oracle_inclusion_rows(downsets, downsets)

    def test_forests_are_chainmails(self, small_poset_corpus):
        for posets in small_poset_corpus.values():
            for p in posets:
                if forest_poset_check(p):
                    assert p.is_chainmail()


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(FormatError):
            named_fixture("nope")

    def test_all_fixtures_build_and_validate(self):
        for name in fixture_names():
            value = named_fixture(name)
            if isinstance(value, ConnectivityPair):
                assert value.lattice.validate() is None
            else:
                assert value.validate() is None

    def test_exa_a_shape(self):
        p = named_fixture("exaA")
        assert p.n == 7
        assert len(p.covers) == 9

    def test_exa_t_content(self):
        pair = named_fixture("exaT")
        assert pair.lattice.n == 24  # divisors of 360
        report = classify(pair)
        assert report.serra
        # prime powers: 2,4,8,3,9,5 -> six connected elements
        assert len(pair.connected) == 6
