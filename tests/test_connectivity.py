"""Connectivity pairs: components, adjunction, CL/E conditions, taxonomy,
join closure, sink machinery."""

from __future__ import annotations

import gc
import hashlib
import os
import random
import weakref

import pytest

from chainmail import connectivity
from chainmail.connectivity import (
    ConnectivityPair,
    _dc_tables,
    _e3_elements,
    _l_plus_survivors,
    _right_adjoint_table,
    absolutely_connected_elements,
    borger_implication_check,
    cl0,
    cl1,
    cl1_half,
    cl1_prime,
    cl2,
    cl3,
    classify,
    components,
    e1,
    e2,
    e3,
    e4,
    frame_equivalence_check,
    galois_adjunction_holds,
    is_absolute,
    is_multicoreflective,
    is_orthogonal,
    is_separated,
    is_subchainmail_of,
    kernel,
    local_join,
    local_joins,
    report_to_json_text,
    sigma_closure,
    sigma_members,
)
from chainmail.cli import export_dot
from chainmail.errors import GuardExceeded, PreconditionError
from chainmail.exterior import downset_to_tmd, tmd_to_downset
from chainmail.generators import (
    Graph,
    fixture_names,
    graph_connectivity_pair,
    named_fixture,
    topology_pair,
)
from chainmail.enumeration import enumerate_complete_lattices, enumerate_connectivity_pairs
from chainmail.poset import FinitePoset, bits_of, mask_of, set_of, tmd_masks

from conftest import (
    dc_sets,
    mk,
    oracle_absolutely_connected,
    oracle_dc_family,
    oracle_e1,
    oracle_e2,
    oracle_e3_elements,
    oracle_e4_elements,
    oracle_is_absolute,
    oracle_join,
    oracle_join_mask,
    oracle_l_plus_families,
    oracle_local_joins,
    oracle_right_adjoint_table,
    oracle_sigma_members,
    relabel,
    subsets,
)


@pytest.fixture(scope="module")
def ps3():
    return FinitePoset.powerset_lattice(3)


@pytest.fixture(scope="module")
def exa_n():
    return named_fixture("exaN")


class TestPair:
    def test_cached_cmask_leaves_equality_and_hash_alone(self, ps3):
        read, fresh = ConnectivityPair(ps3, {1, 2, 4}), ConnectivityPair(ps3, {1, 2, 4})
        assert read.cmask == 0b10110
        # set at construction, and no part of ==, hash or repr: a fresh
        # pair whose mask is overwritten still equals the other
        assert vars(fresh)["cmask"] == 0b10110
        object.__setattr__(fresh, "cmask", 0)
        assert "cmask" not in repr(read)
        assert read == fresh and fresh == read
        assert hash(read) == hash(fresh)
        assert fresh in {read} and read in {fresh}

    def test_lattice_test_runs_once_per_lattice_instance(self, monkeypatch):
        pair_test = FinitePoset.__dict__["_complete_lattice"]
        original = pair_test.func
        tested = []

        def counted(poset):
            tested.append(poset)
            return original(poset)

        monkeypatch.setattr(pair_test, "func", counted)
        lat = FinitePoset.powerset_lattice(3)
        for cmask in range(1 << lat.n):
            classify(ConnectivityPair(lat, set_of(cmask)))
        assert len(tested) == 1 and tested[0] is lat


class TestSubchainmail:
    def test_exa_n_not_closed(self, exa_n):
        assert not is_subchainmail_of(exa_n.lattice, exa_n.connected)

    def test_whole_lattice_is_closed(self, ps3):
        assert is_subchainmail_of(ps3, frozenset(range(8)))

    def test_atoms_are_closed(self, ps3):
        assert is_subchainmail_of(ps3, {1, 2, 4})


class TestComponents:
    def test_two_component_graph(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        pair = graph_connectivity_pair(g)
        assert components(pair, 0b1111) == [0b0011, 0b1100]

    def test_bottom_without_connected_bottom(self, ps3):
        pair = ConnectivityPair(ps3, frozenset({1, 2, 4}))
        assert components(pair, 0) == []

    def test_exa_m_formula(self):
        pair = named_fixture("exaM")
        assert components(pair, 0b111) == [0b011, 0b101]

    def test_each_connected_element_below_unique_component(self, ps3):
        pair = graph_connectivity_pair(Graph.from_edges(3, [(0, 1)]))
        lat = pair.lattice
        for x in range(lat.n):
            comp = components(pair, x)
            for c in pair.connected:
                if lat.leq(c, x):
                    assert sum(1 for m in comp if lat.leq(c, m)) == 1


class TestKernel:
    def test_interior_of_topology(self):
        opens = [[], [0], [0, 1], [0, 1, 2]]
        pair = topology_pair(3, opens)
        masks = sorted(pair.connected)
        for x in range(8):
            interior = 0
            for o in masks:
                if o & ~x == 0:
                    interior |= o
            assert kernel(pair, x) == interior

    def test_connected_elements_are_their_own_kernel(self, exa_n):
        for c in exa_n.connected:
            assert kernel(exa_n, c) == c

    def test_saturated_pair_has_identity_kernel(self):
        pair = graph_connectivity_pair(Graph.from_edges(3, [(0, 1), (1, 2)]))
        for x in range(pair.lattice.n):
            assert kernel(pair, x) == x


@pytest.mark.parametrize("bad", [-1, 4, True, 1.0])
@pytest.mark.parametrize("call", [
    lambda pair, x: FinitePoset.induced(pair.lattice, [x]),
    components,
    kernel,
    lambda pair, x: is_orthogonal(pair.lattice, x, 3, [1]),
    lambda pair, x: pair.lattice.leq(x, 3),
    lambda pair, x: pair.lattice.leq(0, x),
    e1,
    e2,
    e3,
    e4,
], ids=["induced", "components", "kernel", "is_orthogonal", "leq-first", "leq-second",
        "e1", "e2", "e3", "e4"])
def test_element_out_of_range_raises(call, bad):
    # a negative element would read another element's row: the top's, on
    # the 4-element powerset lattice; True would read row 1, and a float
    # is not an element
    pair = ConnectivityPair(FinitePoset.powerset_lattice(2), frozenset({1, 2}))
    with pytest.raises(IndexError, match=f"element {bad} out of range"):
        call(pair, bad)


_SET_ENTRIES = {
    "ConnectivityPair": ConnectivityPair,
    "lower_bounds": lambda lat, s: lat.lower_bounds(s),
    "upper_bounds": lambda lat, s: lat.upper_bounds(s),
    "join": lambda lat, s: lat.join(s),
    "meet": lambda lat, s: lat.meet(s),
    "maximal_elements": lambda lat, s: lat.maximal_elements(s),
    "is_mail": lambda lat, s: lat.is_mail(s),
    "is_mail_connected": lambda lat, s: lat.is_mail_connected(s),
    "mail_connected_components": lambda lat, s: lat.mail_connected_components(s),
    "is_totally_mail_disconnected": lambda lat, s: lat.is_totally_mail_disconnected(s),
    "is_subchainmail_of": is_subchainmail_of,
    "is_orthogonal": lambda lat, s: is_orthogonal(lat, 1, 3, s),
    "is_multicoreflective": is_multicoreflective,
    "local_joins": local_joins,
    "local_join": local_join,
    "borger_implication_check": borger_implication_check,
    "tmd_to_downset": tmd_to_downset,
    "downset_to_tmd": downset_to_tmd,
    "export_dot": export_dot,
}


@pytest.mark.parametrize("bad", [-1, 4, True, 1.0])
@pytest.mark.parametrize("name", list(_SET_ENTRIES))
def test_set_member_out_of_range_raises(name, bad):
    # one error for every public entry that takes a set of elements; a
    # negative member used to fail on a negative shift, and n on a tuple
    # index or a precondition, or to pass unnoticed, as True did in a pair
    lattice = FinitePoset.powerset_lattice(2)
    with pytest.raises(IndexError, match=f"element {bad} out of range"):
        _SET_ENTRIES[name](lattice, [0, bad])


class TestAdjunction:
    def test_exa_n_fails(self, exa_n):
        assert not galois_adjunction_holds(exa_n)

    def test_degenerate_always_holds(self, ps3):
        assert galois_adjunction_holds(ConnectivityPair(ps3, frozenset(range(8))))

    def test_exa_j_holds(self):
        assert galois_adjunction_holds(named_fixture("exaJ"))

    def test_matches_subchainmail_on_fixtures(self):
        for name in ("exaB", "exaH", "exaI", "exaJ", "exaK", "exaM", "exaN", "exaU", "exaV", "exaW", "exaX"):
            pair = named_fixture(name)
            assert galois_adjunction_holds(pair) == is_subchainmail_of(pair.lattice, pair.connected)

    @staticmethod
    def assert_table_matches_the_maximal_sets(pairs) -> set:
        """The one-pass table equals the maximal-sets oracle on each pair;
        returns which outcomes (table or None) were seen."""
        seen = set()
        for pair in pairs:
            dc = _dc_tables(pair)
            table = _right_adjoint_table(pair.lattice, *dc)
            assert table == oracle_right_adjoint_table(pair.lattice, *dc)
            seen.add(table is None)
        return seen

    def test_right_adjoint_matches_the_maximal_sets_up_to_6_elements(self):
        pairs = list(enumerate_connectivity_pairs(6))
        assert len(pairs) == 1166
        assert self.assert_table_matches_the_maximal_sets(pairs) == {False, True}

    def test_right_adjoint_matches_the_maximal_sets_on_pair_fixtures(self):
        pairs = [named_fixture(name) for name in fixture_names()]
        pairs = [pair for pair in pairs if isinstance(pair, ConnectivityPair)]
        assert len(_dc_tables(named_fixture("exaJ"))[0]) == 289
        assert self.assert_table_matches_the_maximal_sets(pairs) == {False, True}

    def test_right_adjoint_matches_the_maximal_sets_on_m_k(self):
        # C = the atoms: D(C) is every set of atoms and the adjoint exists;
        # with the bottom in C no two atoms are in one set, and the top
        # has k maximal sets below it
        for k in range(1, 9):
            atoms = frozenset(range(1, k + 1))
            seen = self.assert_table_matches_the_maximal_sets(
                [ConnectivityPair(mk(k), atoms), ConnectivityPair(mk(k), atoms | {0})])
            assert seen == ({False} if k == 1 else {False, True})


class TestClConditions:
    def test_sierpinski(self):
        pair = named_fixture("exaI")
        assert cl0(pair) and cl1(pair) and not cl2(pair)

    def test_exa_j_fails_cl0_and_cl1(self):
        pair = named_fixture("exaJ")
        assert not cl0(pair) and not cl1(pair)

    def test_divisor_lattice_is_saturated(self):
        assert cl2(named_fixture("exaT"))

    def test_cl1_equals_interval_form_on_fixtures(self):
        for name in ("exaB", "exaH", "exaI", "exaJ", "exaM", "exaU", "exaV", "exaW", "exaX"):
            pair = named_fixture(name)
            assert cl1(pair) == cl1_prime(pair)

    def test_cl1_half(self, ps3):
        atoms = ConnectivityPair(ps3, frozenset({1, 2, 4}))
        assert cl1_half(atoms)
        assert not cl1_half(ConnectivityPair(ps3, frozenset({1})))


class TestSeparated:
    def test_exa_w(self):
        assert is_separated(named_fixture("exaW"))

    def test_path_graph_pair_is_not(self):
        pair = graph_connectivity_pair(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert not is_separated(pair)
        # two disjoint connected sets whose union is connected witness it
        assert not cl3(pair)

    def test_degenerate_with_two_atoms_is_not(self, ps3):
        assert not is_separated(ConnectivityPair(ps3, frozenset(range(8))))

    def test_precondition(self, exa_n):
        with pytest.raises(PreconditionError):
            is_separated(exa_n)


class TestAbsolute:
    def test_powerset_with_atoms(self, ps3):
        assert is_absolute(ConnectivityPair(ps3, frozenset({1, 2, 4})))

    def test_exa_k(self):
        assert is_absolute(named_fixture("exaK"))

    def test_exterior_pairs_small(self, small_poset_corpus):
        from chainmail.exterior import exterior_as_absolute

        for n in range(5):
            for p in small_poset_corpus[n]:
                if p.is_chainmail():
                    assert is_absolute(exterior_as_absolute(p))

    def test_precondition(self, exa_n):
        with pytest.raises(PreconditionError):
            is_absolute(exa_n)

    def test_absolute_verdict_matches_the_pairwise_order_test(self):
        # every pair with |L| <= 7, with or without the adjunction: the
        # verdict classify reads off the adjunction and the join count,
        # against the test of every pair of sets
        count = absolute = 0
        for lat in enumerate_complete_lattices(7):
            for cmask in range(1 << lat.n):
                pair = ConnectivityPair(lat, set_of(cmask))
                verdict = classify(pair).absolute
                assert verdict == oracle_is_absolute(lat, *_dc_tables(pair)), (lat, cmask)
                count += 1
                absolute += verdict
        assert (count, absolute) == (7950, 33)


class TestEConditions:
    def test_m3_atom(self):
        m3 = named_fixture("M3")
        assert e2(m3, 1) and not e1(m3, 1)

    def test_n5_chain_top(self):
        n5 = named_fixture("N5")
        assert e2(n5, 2) and not e1(n5, 2)

    def test_discrete_surrogate_singletons(self, ps3):
        # in a Boolean lattice the atoms satisfy both strong conditions
        for atom in (1, 2, 4):
            assert e3(ps3, atom) and e4(ps3, atom)
        assert absolutely_connected_elements(ps3) == {1, 2, 4}

    def test_bottom_never_satisfies_e3_e4(self, ps3):
        assert not e3(ps3, 0) and not e4(ps3, 0)

    def test_implication_chain_on_fixture_lattices(self):
        for name in ("M3", "N5", "exaE"):
            lat = named_fixture(name)
            for a in range(lat.n):
                if e4(lat, a):
                    assert e3(lat, a) and e1(lat, a)
                if e3(lat, a) or e1(lat, a):
                    assert e2(lat, a)

    def test_accepts_pair_argument(self):
        pair = named_fixture("exaU")
        assert e4(pair, 1)

    def test_e1_e2_match_the_double_loops(self):
        lattices = enumerate_complete_lattices(8)
        assert len(lattices) == 300
        for lat in lattices:
            for a in range(lat.n):
                assert e1(lat, a) == oracle_e1(lat, a)
                assert e2(lat, a) == oracle_e2(lat, a)

    @pytest.mark.parametrize("condition", [e1, e2, e3, e4])
    @pytest.mark.parametrize("a", [-1, 3, 99])
    def test_element_outside_the_lattice_fails(self, condition, a):
        with pytest.raises(IndexError, match=f"^element {a} out of range$"):
            condition(FinitePoset.chain(3), a)

    @pytest.mark.parametrize("condition", [e1, e2, e3, e4])
    @pytest.mark.parametrize("a", [-1, 0, 1, 99])
    def test_poset_without_a_bottom_is_refused(self, condition, a):
        # the element is checked first, before any walk of the poset
        if 0 <= a < 2:
            error, match = PreconditionError, "complete lattices"
        else:
            error, match = IndexError, f"^element {a} out of range$"
        with pytest.raises(error, match=match):
            condition(FinitePoset.antichain(2), a)

    @pytest.mark.parametrize("condition", [e1, e2, e3, e4])
    def test_disjoint_pair_without_a_join_is_refused(self, condition):
        # a bottom and two atoms: the atoms meet in the bottom and have no join
        vee = FinitePoset.from_cover_pairs(3, [(0, 1), (0, 2)])
        with pytest.raises(PreconditionError, match="complete lattices"):
            condition(vee, 1)

    def test_poset_with_a_bottom_but_no_lattice_keeps_its_answers(self):
        # a bottom, two atoms with a join, and two tops above that join:
        # every pair meeting in the bottom has a join, so E1 and E2 answer
        p = FinitePoset.from_cover_pairs(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)])
        assert not p.is_complete_lattice()
        expected = [False, True, True, False, True, True]
        assert [e1(p, a) for a in range(p.n)] == expected
        assert [e2(p, a) for a in range(p.n)] == expected


def closure_lattice(rng: random.Random, k: int) -> FinitePoset:
    """Inclusion order on a closure system of k points: the empty set, the
    full set, the singletons and three random subsets, closed under
    intersection."""
    family = {0, (1 << k) - 1} | {1 << i for i in range(k)} | {rng.getrandbits(k) for _ in range(3)}
    while True:
        grown = family | {a & b for a in family for b in family}
        if grown == family:
            break
        family = grown
    sets = sorted(family)
    return FinitePoset(len(sets), tuple(
        mask_of(j for j, t in enumerate(sets) if s & ~t == 0) for s in sets
    ))


class TestTmdFamilies:
    def test_joins_are_read_off_the_walk(self):
        rng = random.Random(11)
        lattices = [FinitePoset.powerset_lattice(k) for k in (3, 4, 5)]
        lattices += [mk(k) for k in range(1, 9)]
        lattices += [named_fixture("M3"), named_fixture("N5")]
        lattices += [closure_lattice(rng, k) for k in range(8, 13)]
        for lat in lattices:
            l_plus = lat.full_mask & ~(1 << lat.bottom())
            for within in (l_plus, *(rng.getrandbits(lat.n) for _ in range(3))):
                masks, joins, _doms = _dc_tables(ConnectivityPair(lat, set_of(within)))
                assert masks == tmd_masks(lat, within)[0]
                assert joins == tuple(oracle_join_mask(lat.n, lat.up, m) for m in masks)

    def test_dc_family_matches_the_induced_route(self):
        count = 0
        for pair in enumerate_connectivity_pairs(6):
            masks, joins, _doms = _dc_tables(pair)
            assert masks == oracle_dc_family(pair)
            assert joins == tuple(oracle_join(pair.lattice, list(bits_of(m))) for m in masks)
            count += 1
        assert count == 1166

    def test_e3_e4_match_the_subset_scan(self):
        for lat in enumerate_complete_lattices(6):
            assert absolutely_connected_elements(lat) == oracle_absolutely_connected(lat)
            assert {a for a in range(lat.n) if e4(lat, a)} == oracle_absolutely_connected(lat)
            families = oracle_l_plus_families(lat)
            e3_set = {a for a in range(lat.n) if all(a in members for members, j in families if j == a)}
            assert {a for a in range(lat.n) if e3(lat, a)} == e3_set

    def test_e3_e4_never_list_the_l_plus_family(self, ps3, monkeypatch):
        withins = []
        real = connectivity.tmd_masks

        def spying(p, within, *args):
            withins.append(within)
            return real(p, within, *args)

        monkeypatch.setattr(connectivity, "tmd_masks", spying)
        assert absolutely_connected_elements.__wrapped__(ps3) == {1, 2, 4}
        assert _e3_elements(ps3) == {1, 2, 4}
        # the spy sees the one family that is still listed, D(C)
        assert len(dc_sets(ConnectivityPair(ps3, {1, 2, 4}))) == 8
        assert withins == [0b10110]

    @staticmethod
    def assert_walker_matches_the_family_scan(lattices):
        for lat in lattices:
            assert _e3_elements(lat) == oracle_e3_elements(lat)
            assert absolutely_connected_elements.__wrapped__(lat) == oracle_e4_elements(lat)

    def test_walker_matches_the_family_scan_up_to_8_elements(self):
        lattices = enumerate_complete_lattices(8)
        lattices += [FinitePoset.powerset_lattice(k) for k in (4, 5, 6)]
        self.assert_walker_matches_the_family_scan(lattices)

    def test_walker_matches_the_family_scan_on_closure_lattices(self):
        rng = random.Random(13)
        self.assert_walker_matches_the_family_scan(
            closure_lattice(rng, k) for k in range(8, 14) for _ in range(3))

    @pytest.mark.skipif(os.environ.get("CHM_ACCEPT_DEEP") != "1",
                        reason="set CHM_ACCEPT_DEEP=1 for the lattices on 9 elements")
    def test_walker_matches_the_family_scan_on_9_elements(self):
        lattices = [lat for lat in enumerate_complete_lattices(9) if lat.n == 9]
        assert len(lattices) == 1078
        self.assert_walker_matches_the_family_scan(lattices)

    def test_walker_guard_fires_past_the_limit(self):
        lat = FinitePoset.powerset_lattice(4)
        down = lat.down

        def e4_risk(s, dom, lo, hi):
            return down[hi] & ~dom

        assert _l_plus_survivors(lat, e4_risk) == mask_of((1, 2, 4, 8))
        with pytest.raises(GuardExceeded) as info:
            _l_plus_survivors(lat, e4_risk, limit=5)
        assert str(info.value) == "TMD family exceeds 5 sets; raise the limit explicitly"


class TestE4Cache:
    """``absolutely_connected_elements`` keeps at most 256 lattices; the
    subsets of one lattice, read one after another, still share its entry."""

    def test_cache_stays_bounded_over_300_distinct_lattices(self, ps3):
        rng = random.Random(18)
        lattices = set()
        while len(lattices) < 300:
            lattices.add(relabel(ps3, rng.sample(range(ps3.n), ps3.n)))
        for lat in lattices:
            assert len(absolutely_connected_elements(lat)) == 3
        info = absolutely_connected_elements.cache_info()
        assert info.maxsize == 256
        assert info.currsize <= 256

    def test_subsets_of_one_lattice_hit(self):
        lat = relabel(mk(4), [5, 3, 0, 1, 4, 2])
        before = absolutely_connected_elements.cache_info()
        for cmask in range(1 << lat.n):
            classify(ConnectivityPair(FinitePoset(lat.n, lat.up), set_of(cmask)))
        after = absolutely_connected_elements.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits - before.hits >= (1 << lat.n) - 1


class TestFrameEquivalence:
    def test_powerset_and_chain(self, ps3):
        assert frame_equivalence_check(ps3)
        assert frame_equivalence_check(FinitePoset.chain(5))

    def test_requires_distributive(self):
        with pytest.raises(PreconditionError):
            frame_equivalence_check(named_fixture("M3"))


# SHA-256 of the compact JSON reports, witnesses and adjoint view included,
# of the 1,166 pairs of enumerate_connectivity_pairs(6), one line each
PAIRS6_REPORTS_SHA256 = "667d4c1bbebc260bba8dc55aefde56e93b206eeef5a96a8d66f17b09303eaace"


class TestClassify:
    def test_reports_of_every_small_pair_are_pinned(self):
        lines = [report_to_json_text(classify(pair)) + "\n" for pair in enumerate_connectivity_pairs(6)]
        assert len(lines) == 1166
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == PAIRS6_REPORTS_SHA256

    def test_degenerate_profile(self, ps3):
        report = classify(ConnectivityPair(ps3, frozenset(range(8))))
        assert report.degenerate and report.kernel and report.saturated and report.connectivity
        assert not report.typical

    def test_exa_x_profile(self):
        report = classify(named_fixture("exaX"))
        assert report.typical and report.well_founded
        assert not report.separated and not report.saturated

    def test_exa_k_profile(self):
        report = classify(named_fixture("exaK"))
        assert report.serra and report.separated and report.absolute

    def test_witnesses_are_minimal(self):
        report = classify(named_fixture("exaJ"))
        assert report.witnesses["cl0"] == 0
        # the least pair of overlapping edges, as the least antichain
        assert report.witnesses["cl1"] == [0b0011, 0b0101]

    def test_report_json_is_stable(self):
        a = classify(named_fixture("exaW")).to_json()
        b = classify(named_fixture("exaW")).to_json()
        assert a == b
        assert list(a) == list(b)

    def test_nothing_keeps_the_pair_alive(self):
        # a pair no other test builds: a cache would keep an equal one
        # seen earlier, and hide that it keeps this one
        pair = ConnectivityPair(mk(7), frozenset({0, 3, 5, 8}))
        classify(pair)
        ref = weakref.ref(pair)
        del pair
        gc.collect()
        assert ref() is None


class TestTaxonomyFacts:
    def test_e4_equality_without_cl3(self):
        """C equal to the absolutely connected elements implies neither
        CL3 nor separation.  This pair is the first counterexample in
        (size, lattice key, C mask) order over every pair with |L| <= 8:
        atoms 1, 2, 3 below 4, then 5 and 6 above 4, and the top 7."""
        lat = FinitePoset(8, (255, 242, 244, 248, 240, 160, 192, 128))
        pair = ConnectivityPair(lat, frozenset({5, 6, 7}))
        report = classify(pair)
        assert report.connected_equals_absolutely_connected and report.connectivity
        assert not report.cl3 and not report.separated
        assert report.witnesses["cl3"] == [5, 6]
        assert oracle_e4_elements(lat) == oracle_absolutely_connected(lat) == pair.connected
        # {5, 6} is TMD in the order induced on C, and its join, the top,
        # has the one component 7
        family = oracle_dc_family(pair)
        assert family == _dc_tables(pair)[0] == (0, 1 << 5, 1 << 5 | 1 << 6, 1 << 6, 1 << 7)
        assert oracle_join(lat, [5, 6]) == 7
        assert [c for c in (5, 6, 7) if lat.leq(c, 7)
                and not any(d != c and lat.leq(c, d) and lat.leq(d, 7) for d in (5, 6, 7))] == [7]

    @pytest.mark.skipif(os.environ.get("CHM_ACCEPT_DEEP") != "1",
                        reason="set CHM_ACCEPT_DEEP=1 for the pairs on 8 elements")
    def test_no_earlier_pair_separates_e4_equality_from_separation(self):
        for lat in enumerate_complete_lattices(8):
            for cmask in range(1 << lat.n):
                report = classify(ConnectivityPair(lat, set_of(cmask)))
                # separated implies CL3, so the first pair failing either
                # implication fails separation
                if report.connected_equals_absolutely_connected and not report.separated:
                    assert (lat.up, cmask) == ((255, 242, 244, 248, 240, 160, 192, 128), 0b11100000)
                    return
        pytest.fail("no pair separates E4 equality from separation")


class TestSigmaClosure:
    def test_atoms_generate_powerset(self, ps3):
        pair = ConnectivityPair(ps3, frozenset({1, 2, 4}))
        assert sigma_members(pair) == list(range(8))

    def test_exa_n_closure_carries_cl2(self, exa_n):
        closed = sigma_closure(exa_n)
        assert cl2(closed)
        assert sigma_members(exa_n) == [0, 1, 2, 3, 4, 5]

    def test_empty_connectivity(self, ps3):
        pair = ConnectivityPair(ps3, frozenset())
        assert sigma_members(pair) == [0]
        closed = sigma_closure(pair)
        assert closed.lattice.n == 1

    def test_preserves_connectivity_verdict_on_fixtures(self):
        for name in ("exaB", "exaI", "exaN", "exaU", "exaV", "exaW", "exaX"):
            pair = named_fixture(name)
            direct = is_subchainmail_of(pair.lattice, pair.connected)
            closed = sigma_closure(pair)
            assert is_subchainmail_of(closed.lattice, closed.connected) == direct
            assert cl2(closed)

    def test_members_match_the_pairwise_join_fixpoint(self):
        count = 0
        for pair in enumerate_connectivity_pairs(6):
            assert sigma_members(pair) == oracle_sigma_members(pair)
            count += 1
        assert count == 1166


class TestSinkMachinery:
    def test_connected_elements_orthogonal_to_component_sinks(self):
        pair = graph_connectivity_pair(Graph.from_edges(3, [(0, 1)]))
        lat = pair.lattice
        for x in range(lat.n):
            sink = components(pair, x)
            for c in pair.connected:
                assert is_orthogonal(lat, c, x, sink)

    def test_exa_n_not_multicoreflective(self, exa_n):
        assert not is_multicoreflective(exa_n.lattice, exa_n.connected)

    def test_orthogonality_precondition(self, ps3):
        with pytest.raises(PreconditionError):
            is_orthogonal(ps3, 1, 1, [7])

    def test_local_join_equals_join_with_top(self, ps3):
        for members in ([1, 2], [3, 5], [0, 7], []):
            assert local_join(ps3, members) == ps3.join(members)

    def test_local_join_without_top(self):
        p = FinitePoset.antichain(2)
        assert local_joins(p, [0]) == [0]
        assert local_join(p, [0, 1]) is None

    def test_local_joins_match_the_pairwise_scan(self, poset_corpus):
        # every subset of every poset with at most 6 elements
        for n in range(7):
            for p in poset_corpus[n]:
                for members in subsets(n):
                    assert local_joins(p, members) == oracle_local_joins(p, members), (p, members)

    def test_borger_chain_on_lattice_pairs(self, ps3):
        atoms = ConnectivityPair(ps3, frozenset({1, 2, 4}))
        report = borger_implication_check(ps3, atoms.connected)
        assert report.multicoreflective and report.orthogonality_closed and report.local_join_closed
        assert report.local_join_premise and report.equivalent

    def test_borger_exa_n(self, exa_n):
        report = borger_implication_check(exa_n.lattice, exa_n.connected)
        assert not report.multicoreflective
        assert not report.local_join_closed
        assert report.chain_holds

    def test_borger_premise_skips_sets_without_an_upper_bound(self):
        # the V 0 < 1, 0 < 2: {0, 1, 2} is order-connected with no upper
        # bound and no local join, and every other such set has one
        v = FinitePoset.from_cover_pairs(3, [(0, 1), (0, 2)])
        report = borger_implication_check(v, {0})
        assert report.local_join_premise
        assert report.equivalent is not None

    def test_borger_degenerate(self, ps3):
        report = borger_implication_check(ps3, frozenset(range(8)))
        assert report.multicoreflective and report.orthogonality_closed and report.local_join_closed
