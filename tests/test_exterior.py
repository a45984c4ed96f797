"""Exterior construction, reconstruction isomorphism, absolute pairing."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from chainmail.connectivity import absolutely_connected_elements, classify
from chainmail.errors import FormatError, GuardExceeded, PreconditionError
from chainmail.exterior import (
    downclosed_subchainmails,
    downset_to_tmd,
    exterior,
    exterior_as_absolute,
    exterior_is_complete,
    inclusion_poset,
    tmd_set_masks,
    tmd_to_downset,
)
from chainmail.generators import named_fixture
from chainmail.poset import FinitePoset, bits_of, tmd_masks

from conftest import (
    lex_subsets,
    oracle_is_complete_lattice,
    oracle_is_mail,
    oracle_join,
    oracle_lower_bounds,
    relabel,
    subsets,
)


@pytest.fixture(scope="module")
def exa_a():
    return named_fixture("exaA")


def tmd_family_oracle(p: FinitePoset) -> set:
    """All TMD subsets by direct pairwise scanning."""
    out = set()
    for members in subsets(p.n):
        ok = True
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if p.lower_bounds([a, b]):
                    ok = False
        if ok:
            out.add(frozenset(members))
    return out


class TestExterior:
    def test_exa_a_family_is_exactly_the_published_one(self, exa_a):
        fam = exterior(exa_a)
        expected = (
            [frozenset()]
            + [frozenset({x}) for x in range(7)]
            + [frozenset({0, 3}), frozenset({1, 3}), frozenset({2, 3})]
        )
        assert sorted(fam.sets, key=sorted) == sorted(expected, key=sorted)
        assert len(fam.sets) == 11

    def test_exa_a_order_matches_published_hasse_diagram(self, exa_a):
        # the 11-element diagram: two bottom covers, singleton ladder on one
        # side, the three two-element sets chained on the other
        fam = exterior(exa_a)
        i = fam.index_of
        diagram = FinitePoset.from_cover_pairs(
            11,
            [
                (i(()), i({0})), (i(()), i({3})),
                (i({0}), i({1})), (i({0}), i({2})), (i({0}), i({0, 3})),
                (i({3}), i({0, 3})),
                (i({0, 3}), i({1, 3})), (i({0, 3}), i({2, 3})),
                (i({1}), i({1, 3})), (i({2}), i({2, 3})),
                (i({1, 3}), i({4})), (i({2, 3}), i({4})),
                (i({2, 3}), i({5})),
                (i({4}), i({6})), (i({5}), i({6})),
            ],
        )
        assert diagram == fam.order

    def test_matches_oracle_on_corpus(self, small_poset_corpus):
        for posets in small_poset_corpus.values():
            for p in posets:
                fam = exterior(p)
                assert set(fam.sets) == tmd_family_oracle(p)
                assert fam.order.validate() is None

    def test_masks_give_the_frozenset_answers(self, poset_corpus):
        for posets in poset_corpus.values():
            for p in posets:
                fam = exterior(p)
                sets = fam.sets
                assert sets is fam.sets
                assert sets == tuple(frozenset(bits_of(m)) for m in tmd_masks(p, p.full_mask)[0])
                for i, s in enumerate(sets):
                    assert fam.index_of(s) == fam.index_of(sorted(s)) == i
                assert fam.singleton_indices() == frozenset(i for i, s in enumerate(sets) if len(s) == 1)
        fam = exterior(FinitePoset.chain(2))
        for members in ({0, 1}, {2}, {-1}):
            with pytest.raises(KeyError):
                fam.index_of(members)

    def test_tmd_masks_come_in_lex_order(self, poset_corpus):
        rng = random.Random(3)
        for posets in poset_corpus.values():
            for p in posets:
                for q in (p, relabel(p, rng.sample(range(p.n), p.n))):
                    masks = tmd_masks(q, q.full_mask)[0]
                    assert list(masks) == sorted(masks, key=lambda m: tuple(bits_of(m)))

    def test_singleton_base(self):
        fam = exterior(FinitePoset(1, (1,)))
        assert fam.sets == (frozenset(), frozenset({0}))
        assert fam.order == FinitePoset.chain(2)

    def test_two_antichain_gives_boolean_square(self):
        fam = exterior(FinitePoset.antichain(2))
        assert len(fam.sets) == 4
        assert fam.order.is_isomorphic(FinitePoset.powerset_lattice(2))

    def test_order_definition_spotcheck(self, exa_a):
        fam = exterior(exa_a)
        # {1} <= {1,4} and {1,4} <= {5} but {5} is not below {1,4}
        assert fam.order.leq(fam.index_of({0}), fam.index_of({0, 3}))
        assert fam.order.leq(fam.index_of({0, 3}), fam.index_of({4}))
        assert not fam.order.leq(fam.index_of({4}), fam.index_of({0, 3}))

    def test_size_guard(self):
        with pytest.raises(GuardExceeded):
            tmd_set_masks(FinitePoset.antichain(12), 100)

    def test_guard_fires_one_set_past_the_limit(self, exa_a):
        for p in (FinitePoset.antichain(5), exa_a, FinitePoset.powerset_lattice(3)):
            masks = tmd_set_masks(p)
            s = len(masks)
            assert tmd_masks(p, p.full_mask, limit=s)[0] == masks
            with pytest.raises(GuardExceeded) as caught:
                tmd_masks(p, p.full_mask, limit=s - 1)
            assert str(caught.value) == f"TMD family exceeds {s - 1} sets; raise the limit explicitly"

    def test_search_leaves_no_reference_cycle(self):
        # the family is freed when tmd_masks returns, not at a later
        # collection; a wide classify builds tens of thousands of sets
        gc.collect()
        gc.disable()
        try:
            tmd_masks(FinitePoset.antichain(6), 63)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCompleteness:
    def test_exa_a(self, exa_a):
        assert exterior_is_complete(exa_a)

    def test_non_chainmail_is_incomplete(self):
        p = FinitePoset.from_cover_pairs(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        assert not p.is_chainmail()
        assert not exterior_is_complete(p)

    def test_empty_poset(self):
        e = FinitePoset(0, ())
        fam = exterior(e)
        assert len(fam.sets) == 1
        assert fam.order.is_complete_lattice()
        assert e.is_chainmail()

    def test_lattice_test_matches_the_join_oracle(self, small_poset_corpus):
        # the bases include non-chainmails, whose exteriors are not lattices
        verdicts = set()
        for posets in small_poset_corpus.values():
            for p in posets:
                order = exterior(p).order
                verdict = order.is_complete_lattice()
                assert verdict == oracle_is_complete_lattice(order)
                verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_seven_antichain_exterior_is_a_lattice(self):
        order = exterior(FinitePoset.antichain(7)).order
        assert order.n == 128
        assert order.is_complete_lattice()
        assert oracle_is_complete_lattice(order)

    def test_nothing_keeps_the_base_or_the_order_alive(self):
        # a poset no other test builds: a cache would keep an equal one
        # seen earlier, and hide that it keeps this one
        p = FinitePoset.from_cover_pairs(6, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5)])
        order = exterior(p).order
        assert not order.is_complete_lattice()   # p is not a chainmail
        refs = [weakref.ref(p), weakref.ref(order)]
        del p, order
        gc.collect()
        assert [r() for r in refs] == [None, None]


class TestDownclosedSubchainmails:
    def test_chain_all_downsets_qualify(self):
        sets = downclosed_subchainmails(FinitePoset.chain(3))
        assert sets == [frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})]

    def test_two_antichain(self):
        sets = downclosed_subchainmails(FinitePoset.antichain(2))
        assert sets == [frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({1})]

    def test_exa_a_isomorphic_to_exterior(self, exa_a):
        sets = downclosed_subchainmails(exa_a)
        assert len(sets) == 11
        assert inclusion_poset(sets).is_isomorphic(exterior(exa_a).order)

    @pytest.mark.parametrize("member", [-1, 1.5, True])
    def test_inclusion_poset_refuses_members_that_are_not_elements(self, member):
        # not a bare ValueError from a negative shift or a TypeError from a
        # float shift, and True is not taken for element 1
        with pytest.raises(FormatError, match=f"^set member {member} out of range$"):
            inclusion_poset([frozenset(), frozenset({member})])

    def test_precondition(self):
        p = FinitePoset.from_cover_pairs(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        with pytest.raises(PreconditionError):
            downclosed_subchainmails(p)

    def test_matches_a_subset_scan_on_every_small_chainmail(self, poset_corpus):
        # a subset qualifies when it is down-closed and holds the join of
        # every mail inside it, of any size
        checked = 0
        for posets in poset_corpus.values():
            for p in filter(FinitePoset.is_chainmail, posets):
                expected = []
                for members in subsets(p.n):
                    inside = set(members)
                    if all(oracle_lower_bounds(p, {x}) <= inside for x in inside) and all(
                        oracle_join(p, mail) in inside
                        for mail in lex_subsets(members) if oracle_is_mail(p, mail)
                    ):
                        expected.append(frozenset(members))
                assert downclosed_subchainmails(p) == sorted(expected, key=sorted)
                checked += 1
        assert checked == 1 + 1 + 2 + 4 + 10 + 28 + 99


class TestReconstructionMaps:
    def test_top_of_chain(self):
        chain = FinitePoset.chain(4)
        assert tmd_to_downset(chain, {3}) == {0, 1, 2, 3}
        assert downset_to_tmd(chain, {0, 1, 2, 3}) == {3}

    def test_exa_a_pair_downset(self, exa_a):
        assert tmd_to_downset(exa_a, {0, 3}) == {0, 3}

    def test_round_trip_everywhere_small(self, small_poset_corpus):
        for posets in small_poset_corpus.values():
            for p in posets:
                if not p.is_chainmail():
                    continue
                fam = exterior(p)
                downsets = set(downclosed_subchainmails(p))
                for s in fam.sets:
                    ds = tmd_to_downset(p, s)
                    assert ds in downsets
                    assert downset_to_tmd(p, ds) == s

    def test_maps_are_mutually_inverse_both_ways(self, exa_a):
        for ds in downclosed_subchainmails(exa_a):
            assert tmd_to_downset(exa_a, downset_to_tmd(exa_a, ds)) == ds

    def test_tmd_precondition(self, exa_a):
        with pytest.raises(PreconditionError):
            tmd_to_downset(exa_a, {1, 2})


class TestExteriorAsAbsolute:
    def test_exa_a(self, exa_a):
        pair = exterior_as_absolute(exa_a)
        report = classify(pair)
        assert report.absolute and not pair.lattice.is_distributive()
        singletons = sorted(pair.connected)
        induced = FinitePoset.induced(pair.lattice, singletons)
        assert induced.is_isomorphic(exa_a)
        assert absolutely_connected_elements(pair.lattice) == pair.connected

    def test_three_antichain_gives_atomic_boolean(self):
        pair = exterior_as_absolute(FinitePoset.antichain(3))
        assert pair.lattice.is_isomorphic(FinitePoset.powerset_lattice(3))
        assert classify(pair).absolute

    def test_lattice_plus_new_bottom(self):
        n5 = named_fixture("N5")
        pair = exterior_as_absolute(n5)
        exa_ab = named_fixture("exaAB")
        assert pair.lattice.is_isomorphic(exa_ab.lattice)
        assert classify(exa_ab).absolute

    def test_requires_chainmail(self):
        p = FinitePoset.from_cover_pairs(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        with pytest.raises(PreconditionError):
            exterior_as_absolute(p)

    def test_disjoint_union_joins_in_exterior(self, exa_a):
        # joins of families of pairwise-disjoint sets with TMD union are unions
        fam = exterior(exa_a)
        a, b = fam.index_of({1}), fam.index_of({3})
        assert fam.sets[fam.order.join({a, b})] == {1, 3}
