"""Poset core: axioms, bounds, mails, chainmail tests, JSON format."""

from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
import random

import pytest

from chainmail import poset
from chainmail.connectivity import ConnectivityPair, borger_implication_check, classify
from chainmail.errors import FormatError, GuardExceeded
from chainmail.generators import Graph, Hypergraph, named_fixture
from chainmail.enumeration import enumerate_complete_lattices, enumerate_posets
from chainmail.exterior import exterior, tmd_to_downset
from chainmail.poset import (FinitePoset, bits_of, cached_attribute, downset_masks, inclusion_rows,
                             mail_mates, mail_pairs, mask_of, reduced_mail_scan, set_of, tmd_masks)

from conftest import (
    lex_subsets,
    oracle_closure,
    oracle_covers,
    oracle_inclusion_rows,
    oracle_is_chainmail_all_mails,
    oracle_is_complete_lattice,
    oracle_is_mail,
    oracle_is_mail_connected,
    oracle_join,
    oracle_join_mask,
    oracle_lower_bounds,
    oracle_meet,
    oracle_upper_bounds,
    relabel,
    subsets,
)


@pytest.fixture(scope="module")
def exa_a():
    return named_fixture("exaA")


class TestValidate:
    def test_singleton_identity_ok(self):
        assert FinitePoset(1, (1,)).validate() is None

    def test_antisymmetry_violation(self):
        p = FinitePoset(2, (0b11, 0b11))
        v = p.validate()
        assert v.axiom == "antisymmetry"
        assert v.witness == (0, 1)

    def test_transitivity_violation(self):
        p = FinitePoset(3, (0b011, 0b110, 0b100))
        v = p.validate()
        assert v.axiom == "transitivity"
        assert v.witness == (0, 1, 2)

    @pytest.mark.parametrize("c", [9, 39])
    def test_transitivity_witness_past_one_byte(self, c):
        # 1 <= c and 1 <= c + 5 but not 0 <= c: the witness is the least
        # such c, read from a 16-bit mask or from a mask wider than 32 bits
        n = c + 6
        rows = [1 << a for a in range(n)]
        rows[0] |= 1 << 1
        rows[1] |= 1 << c | 1 << (c + 5)
        v = FinitePoset(n, tuple(rows)).validate()
        assert v.axiom == "transitivity"
        assert v.witness == (0, 1, c)

    def test_reflexivity_violation(self):
        p = FinitePoset(2, (0b01, 0b00))
        assert p.validate().axiom == "reflexivity"

    @pytest.mark.parametrize("up, row", [((0b101, 0b10), 0), ((-1, 0b10), 0), ((0b00, 0b110), 1)])
    def test_row_out_of_range_is_reported_before_the_axioms(self, up, row):
        v = FinitePoset(2, up).validate()
        assert v.axiom == "range"
        assert v.witness == (row,)


class TestClosure:
    def test_one_warshall_pass_matches_the_repeated_sweep(self):
        # random relations, cyclic ones included: the closure is a
        # preorder there, and both must give the same rows
        rng = random.Random(17)
        cyclic = 0
        for n in range(9):
            for _ in range(60):
                density = rng.random()
                pairs = [(a, b) for a in range(n) for b in range(n) if rng.random() < density / 2]
                closed = FinitePoset.from_leq_pairs(n, pairs, close=True)
                assert closed.up == oracle_closure(n, pairs)
                cyclic += closed.validate() is not None
        assert cyclic > 100


class TestBounds:
    def test_chain_down_and_up(self):
        c = FinitePoset.chain(3)
        assert c.down_set(2) == {0, 1, 2}
        assert c.up_set(2) == {2}
        assert c.up_set(0) == {0, 1, 2}

    def test_exa_a_mid_element_down_set(self, exa_a):
        # the element covering both lower diamonds pulls in everything below
        assert exa_a.down_set(4) == {0, 1, 2, 3, 4}

    def test_out_of_range(self, exa_a):
        with pytest.raises(IndexError):
            exa_a.down_set(7)

    def test_exa_a_joins(self, exa_a):
        assert exa_a.join({1, 2}) == 4
        assert exa_a.join({1, 5}) == 6
        assert exa_a.join({4, 5}) == 6
        assert exa_a.join({2, 3}) is None

    @pytest.mark.parametrize("method", ["lower_bounds", "upper_bounds", "join", "meet", "is_mail"])
    def test_negative_member_raises(self, method):
        # a negative index would read another element's row
        with pytest.raises(IndexError, match="element -1 out of range"):
            getattr(FinitePoset.chain(3), method)([-1])

    @pytest.mark.parametrize("entry,members", [
        (lambda m: tmd_to_downset(FinitePoset.powerset_lattice(2), m), [1]),
        (lambda m: borger_implication_check(FinitePoset(4, (15, 10, 12, 8)), m), (0, 1, 2)),
        (lambda m: ConnectivityPair(FinitePoset.powerset_lattice(2), m).connected, [1, 2]),
        (lambda m: Graph(3, m).edges, [(0, 1)]),
        (lambda m: Hypergraph(3, m).hyperedges, [(0, 1), (1, 2)]),
    ], ids=["tmd_to_downset", "borger_implication_check", "ConnectivityPair", "Graph", "Hypergraph"])
    def test_a_one_shot_iterator_gives_what_its_members_give(self, entry, members):
        assert entry(iter(members)) == entry(members)

    def test_join_of_empty_set_is_bottom(self):
        assert FinitePoset.chain(3).join(()) == 0
        assert FinitePoset.antichain(2).join(()) is None

    def test_meet_examples(self):
        chain = FinitePoset.chain(3)
        assert chain.meet({1, 2}) == 1
        m3 = named_fixture("M3")
        assert m3.meet({1, 2}) == 0
        assert FinitePoset.antichain(2).meet({0, 1}) is None

    def test_join_meet_match_oracle_exhaustively(self, small_poset_corpus):
        for n, posets in small_poset_corpus.items():
            for p in posets:
                for members in subsets(n):
                    assert p.join(members) == oracle_join(p, members)
                    if members:
                        assert p.meet(members) == oracle_meet(p, members)


class TestHelpers:
    def test_mail_mates_share_a_lower_bound_in_lows(self, small_poset_corpus):
        # catalog labels extend the order, so each poset is also relabeled
        rng = random.Random(15)
        for posets in small_poset_corpus.values():
            for p in posets:
                for q in (p, relabel(p, rng.sample(range(p.n), p.n))):
                    for lows in range(1 << q.n):
                        rows = mail_mates(q.n, q.up, q.down, lows)
                        for a in range(q.n):
                            expected = mask_of(
                                b for b in range(q.n)
                                if any(lows >> u & 1 for u in oracle_lower_bounds(q, [a, b]))
                            )
                            assert rows[a] == expected
                    assert q.mail_mates == mail_mates(q.n, q.up, q.down, q.full_mask)

    def test_downset_masks_are_the_down_closed_subsets(self, small_poset_corpus):
        for posets in small_poset_corpus.values():
            for p in posets:
                expected = [
                    mask_of(members) for members in subsets(p.n)
                    if all(y in members for x in members for y in range(p.n) if p.leq(y, x))
                ]
                assert downset_masks(p.n, p.down) == expected

    def test_downset_masks_under_arbitrary_labelings(self, poset_corpus):
        # catalog labelings list elements in a linear extension already;
        # relabeled ones make the lister find one by |down|
        rng = random.Random(20261019)
        for n, posets in poset_corpus.items():
            for p in posets:
                perm = list(range(n))
                rng.shuffle(perm)
                q = relabel(p, perm)
                expected = [m for m in range(1 << n)
                            if all(q.down[x] & ~m == 0 for x in range(n) if m >> x & 1)]
                assert downset_masks(n, q.down) == expected

    def test_top_is_the_greatest_element(self, small_poset_corpus):
        for posets in small_poset_corpus.values():
            for p in posets:
                assert p.top() == oracle_meet(p, [])


class TestMails:
    def test_empty_set_is_not_a_mail(self, exa_a):
        assert not exa_a.is_mail(())
        assert not exa_a.is_mail_connected(())

    def test_exa_a_pair_with_shared_bottom(self, exa_a):
        assert exa_a.is_mail({1, 2})

    def test_antichain_pair_is_not_a_mail(self):
        assert not FinitePoset.antichain(2).is_mail({0, 1})

    def test_singletons_are_mail_connected_and_tmd(self, exa_a):
        for x in range(exa_a.n):
            assert exa_a.is_mail_connected({x})
            assert exa_a.is_totally_mail_disconnected({x})

    def test_exa_a_side_triple_is_disconnected(self, exa_a):
        # elements 2, 3, 4 in the figure's numbering: 3 and 4 reach no one
        members = {1, 2, 3}
        assert oracle_is_mail_connected(exa_a, members) is False
        assert exa_a.is_mail_connected(members) is False

    def test_antichain_pair_not_connected(self):
        assert not FinitePoset.antichain(2).is_mail_connected({0, 1})

    def test_mail_connectivity_matches_oracle(self, small_poset_corpus):
        for n, posets in small_poset_corpus.items():
            for p in posets:
                for members in subsets(n):
                    if members:
                        assert p.is_mail_connected(members) == oracle_is_mail_connected(p, members)


class TestComponents:
    def test_empty_input(self, exa_a):
        assert exa_a.mail_connected_components(()) == []

    def test_exa_a_full_carrier_is_one_component(self, exa_a):
        assert exa_a.mail_connected_components(range(7)) == [frozenset(range(7))]

    def test_disjoint_chains_split(self):
        p = FinitePoset.from_cover_pairs(4, [(0, 1), (2, 3)])
        assert p.mail_connected_components(range(4)) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_order_components(self, exa_a):
        assert len(FinitePoset.chain(3).order_connected_components()) == 1
        assert len(FinitePoset.antichain(3).order_connected_components()) == 3
        plus = FinitePoset.from_cover_pairs(
            8, [(a + 1, b + 1) for a, b in [(0, 1), (0, 2), (3, 4), (3, 5), (1, 4), (2, 4), (2, 5), (4, 6), (5, 6)]]
        )
        assert len(plus.order_connected_components()) == 2

    def test_order_components_equal_mail_components_on_carrier(self, small_poset_corpus):
        for posets in small_poset_corpus.values():
            for p in posets:
                assert p.order_connected_components() == p.mail_connected_components(range(p.n))


class TestTmd:
    def test_exa_a_examples(self, exa_a):
        assert exa_a.is_totally_mail_disconnected({0, 3})
        assert not exa_a.is_totally_mail_disconnected({1, 2})

    def test_empty_set_accepted(self, exa_a):
        assert exa_a.is_totally_mail_disconnected(())


def incomparable_mate_pairs(p: FinitePoset) -> list:
    """Pairs of incomparable mail-mates, in lexicographic order."""
    return [frozenset({a, b}) for a in range(p.n)
            for b in bits_of(p.mail_mates[a] & ~(p.up[a] | p.down[a])) if a < b]


class TestReducedMails:
    # A reduced mail is an antichain of two or more elements with a common
    # lower bound.  Each one contains a two-element one, a pair of incomparable
    # mail-mates; forest_poset_check tests for reduced mails this way.
    def test_chain_has_none(self):
        assert incomparable_mate_pairs(FinitePoset.chain(4)) == []

    def test_exa_a_exact_list(self, exa_a):
        pairs = incomparable_mate_pairs(exa_a)
        assert pairs == [frozenset({1, 2}), frozenset({1, 5}), frozenset({4, 5})]

    def test_bottomed_antichain(self):
        p = FinitePoset.from_cover_pairs(3, [(0, 1), (0, 2)])
        assert incomparable_mate_pairs(p) == [frozenset({1, 2})]

    def test_reduced_mails_are_antichain_mails(self, small_poset_corpus):
        for posets in small_poset_corpus.values():
            for p in posets:
                reduced = [
                    frozenset(s) for s in subsets(p.n)
                    if len(s) >= 2 and oracle_is_mail(p, s)
                    and not any(p.leq(a, b) for a, b in itertools.permutations(s, 2))
                ]
                pairs = incomparable_mate_pairs(p)
                assert set(pairs) == {s for s in reduced if len(s) == 2}
                assert bool(pairs) == bool(reduced)


class TestChainmail:
    def test_exa_a_is_chainmail(self, exa_a):
        assert exa_a.is_chainmail()
        assert oracle_is_chainmail_all_mails(exa_a)

    def test_two_minimal_upper_bounds_break_it(self):
        p = FinitePoset.from_cover_pairs(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        assert not p.is_chainmail()

    def test_every_lattice_is_a_chainmail(self):
        for p in (named_fixture("M3"), named_fixture("N5"), FinitePoset.powerset_lattice(3)):
            assert p.is_chainmail()

    def test_empty_poset_is_chainmail_but_not_lattice(self):
        e = FinitePoset(0, ())
        assert e.is_chainmail()
        assert not e.is_complete_lattice()
        assert e.order_connected_components() == []


class TestPairLemma:
    """``mail_pairs`` lists the pairs that the pair lemma reduces every
    mail to; ``is_chainmail`` reads it instead of walking all mails."""

    @staticmethod
    def brute_pairs(p: FinitePoset, members: int, lows: int) -> list:
        return [(1 << a | 1 << b, mask_of(oracle_upper_bounds(p, {a, b})))
                for a, b in itertools.combinations(bits_of(members), 2)
                if not p.leq(a, b) and not p.leq(b, a)
                and oracle_lower_bounds(p, {a, b}) & set_of(lows)]

    def test_mail_pairs_match_a_brute_force_listing(self, poset_corpus):
        # catalog labels extend the order, so each poset is also relabeled
        rng = random.Random(12)
        for posets in poset_corpus.values():
            for p in posets:
                full = p.full_mask
                draws = [(full, full)] + [(rng.randrange(full + 1), rng.randrange(full + 1))
                                          for _ in range(3)]
                for q in (p, relabel(p, rng.sample(range(p.n), p.n))):
                    for members, lows in draws:
                        assert list(mail_pairs(q.up, q.down, members, lows)) == \
                            self.brute_pairs(q, members, lows)

    def test_is_chainmail_agrees_with_the_walk_up_to_seven_elements(self, poset_corpus):
        posets = [p for n in range(7) for p in poset_corpus[n]]
        posets += enumerate_posets(7, want_catalog=True).catalog
        assert posets[0].n == 0
        chainmails = 0
        for p in posets:
            walk = reduced_mail_scan(p.n, p.up, p.down, False) is None
            assert p.is_chainmail() == walk
            chainmails += walk
        assert (len(posets), chainmails) == (2451, 575)


class TestTmdWalk:
    """``tmd_masks`` lists the sets of ``within`` with no two members
    sharing a lower bound in ``within``, with their upper-bound masks and
    down-sets."""

    @staticmethod
    def scan(p: FinitePoset, within: int) -> list:
        """The same sets by a scan of every subset, in lex order."""
        elems = [x for x in range(p.n) if within >> x & 1]
        lows = set_of(within)
        return [0] + [mask_of(s) for s in lex_subsets(elems)
                      if not any(oracle_lower_bounds(p, pair) & lows
                                 for pair in itertools.combinations(s, 2))]

    def test_walk_matches_the_subset_scan(self, poset_corpus):
        # catalog labels extend the order, so each poset is also relabeled
        rng = random.Random(14)
        for posets in poset_corpus.values():
            for p in posets:
                for q in (p, relabel(p, rng.sample(range(p.n), p.n))):
                    full = q.full_mask
                    for within in (full, *(rng.randrange(full + 1) for _ in range(3))):
                        masks, ubs, doms = tmd_masks(q, within)
                        assert list(masks) == self.scan(q, within)
                        assert len(ubs) == len(doms) == len(masks)
                        for m, ub, dom in zip(masks, ubs, doms):
                            assert ub == mask_of(oracle_upper_bounds(q, set_of(m)))
                            assert dom == mask_of(y for y in range(q.n)
                                                  if any(q.leq(y, x) for x in bits_of(m)))


class TestInclusionRows:
    """``inclusion_rows`` builds each row from per-element columns; the
    pairwise test of every mask against every ceiling is the oracle."""

    def test_matches_the_pairwise_rows_on_tmd_families(self, poset_corpus):
        # catalog labels extend the order, so each poset is also relabeled
        rng = random.Random(16)
        posets = [p for n in range(7) for p in poset_corpus[n]]
        posets += enumerate_posets(7, want_catalog=True).catalog
        for p in posets:
            for q in (p, relabel(p, rng.sample(range(p.n), p.n))):
                masks, _ubs, doms = tmd_masks(q, q.full_mask)
                assert inclusion_rows(masks, doms) == oracle_inclusion_rows(masks, doms)

    def test_matches_the_pairwise_rows_on_random_masks(self):
        # masks draw from 12 bits and ceilings from the low 9, so some
        # members lie in no ceiling; the empty mask is always present
        rng = random.Random(17)
        for _ in range(300):
            ceilings = [rng.randrange(1 << 9) for _ in range(rng.randrange(12))]
            masks = [0] + [rng.randrange(1 << 12) & rng.randrange(1 << 12)
                           for _ in range(rng.randrange(12))]
            assert inclusion_rows(masks, ceilings) == oracle_inclusion_rows(masks, ceilings)

    def test_edge_cases(self):
        full = (1 << 3) - 1
        assert inclusion_rows([0, 0], [1, 2, 4]) == (full, full)
        assert inclusion_rows([0, 1, 8], []) == (0, 0, 0)
        assert inclusion_rows([8, 9], [1, 3, 7]) == (0, 0)
        assert inclusion_rows([], [1, 3]) == ()


def low_bit_loop(mask: int) -> list:
    """The set bits of ``mask``, ascending, one low bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TestBitsOf:
    def test_every_mask_below_4096(self):
        for mask in range(1 << 12):
            assert list(bits_of(mask)) == low_bit_loop(mask)

    def test_single_bits(self):
        for i in range(71):
            assert list(bits_of(1 << i)) == [i]

    @pytest.mark.parametrize("edge", [1 << 8, 1 << 16, 1 << 24, 1 << 32])
    def test_masks_that_straddle_a_table_edge(self, edge):
        rng = random.Random(edge)
        masks = [edge + d for d in range(-3, 4)] + [edge | edge - 1, edge | edge >> 1 | 1]
        masks += [edge + rng.randrange(-edge // 2, edge) for _ in range(50)]
        for mask in masks:
            assert list(bits_of(mask)) == low_bit_loop(mask)

    @pytest.mark.parametrize("width", [33, 64, 200])
    def test_random_wide_masks(self, width):
        rng = random.Random(width)
        for _ in range(200):
            mask = rng.getrandbits(width) | 1 << (width - 1)
            assert list(bits_of(mask)) == low_bit_loop(mask)

    def test_a_wide_mask_is_walked_lazily(self):
        bits = bits_of(1 << 500 | 1 << 40)
        assert next(bits) == 40
        assert list(bits) == [500]


class TestCachedTables:
    def test_down_is_computed_once_per_instance(self, monkeypatch):
        calls = []
        transpose = poset.transpose

        def counted(n, rows):
            calls.append(n)
            return transpose(n, rows)

        monkeypatch.setattr(poset, "transpose", counted)
        p = FinitePoset.chain(3)
        assert p.down == p.down == (0b001, 0b011, 0b111)
        assert calls == [3]
        assert FinitePoset.chain(3).down == p.down
        assert calls == [3, 3]

    def test_reading_the_tables_keeps_the_value(self):
        p, q = FinitePoset.powerset_lattice(2), FinitePoset.powerset_lattice(2)
        before = hash(p)
        for name in ("down", "full_mask", "up_index", "down_index", "mail_mates", "covers",
                     "_complete_lattice", "canonical"):
            getattr(p, name)
        assert p == q and q == p
        assert hash(p) == before == hash(q)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.n = 3
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p == pickle.loads(pickle.dumps(q))
        assert copy.down == p.down and copy.covers == p.covers

    def test_the_class_attribute_is_the_descriptor(self):
        assert isinstance(FinitePoset.down, cached_attribute)
        assert FinitePoset.up_index.__doc__.startswith("{up-row: element}.")
        assert FinitePoset.covers.__doc__ == FinitePoset.__dict__["covers"].func.__doc__

    def test_rows_given_as_a_list_are_kept_as_a_tuple(self):
        # the diamond 0 < 1, 2 < 3, its rows given as a list
        lat, rows = FinitePoset(4, [15, 10, 12, 8]), FinitePoset(4, (15, 10, 12, 8))
        assert lat.up == (15, 10, 12, 8) and type(lat.up) is tuple
        assert lat == rows and hash(lat) == hash(rows)
        assert lat.is_complete_lattice()
        assert classify(ConnectivityPair(lat, {1, 2})) == classify(ConnectivityPair(rows, {1, 2}))


class TestCovers:
    """``covers`` takes the minimal elements of each strict up-set; the
    between test on every comparable pair is the oracle."""

    def test_matches_the_between_test(self, poset_corpus):
        # catalog labels extend the order, so each poset is also relabeled
        rng = random.Random(18)
        for posets in poset_corpus.values():
            for p in posets:
                for q in (p, relabel(p, rng.sample(range(p.n), p.n))):
                    assert q.covers == oracle_covers(q)

    def test_matches_the_between_test_on_exterior_orders(self):
        for k in range(9):
            order = exterior(FinitePoset.antichain(k)).order
            assert order.covers == oracle_covers(order)
            assert len(order.covers) == k * 2 ** k // 2   # the Boolean lattice's edges


class TestPowersetLattice:
    def test_is_the_inclusion_order_on_subsets(self):
        for k in range(5):
            subsets_k = range(1 << k)
            assert FinitePoset.powerset_lattice(k).up == oracle_inclusion_rows(subsets_k, subsets_k)


class TestCompleteLattice:
    def test_m3(self):
        assert named_fixture("M3").is_complete_lattice()

    def test_exa_a_lacks_bottom(self, exa_a):
        assert not exa_a.is_complete_lattice()

    def test_matches_chainmail_plus_bottom(self, small_poset_corpus):
        for posets in small_poset_corpus.values():
            for p in posets:
                expected = (
                    p.n > 0
                    and p.is_chainmail()
                    and p.bottom() is not None
                    and len(p.order_connected_components()) == 1
                )
                assert p.is_complete_lattice() == expected

    def test_matches_the_join_oracle(self, poset_corpus):
        for posets in poset_corpus.values():
            for p in posets:
                assert p.is_complete_lattice() == oracle_is_complete_lattice(p)

    def test_cached_facts_match_a_recomputation(self, poset_corpus):
        # a fresh instance per poset, so no earlier test filled its caches
        for posets in poset_corpus.values():
            for p in posets:
                q = FinitePoset(p.n, p.up)
                for _ in range(2):
                    assert q.up_index == {q.up[a]: a for a in range(q.n)}
                    assert q.bottom() == oracle_join_mask(q.n, q.up, 0) == oracle_join(q, [])
                    assert q.is_complete_lattice() == oracle_is_complete_lattice(p)

    def test_up_index_reads_every_join_of_a_lattice(self):
        lattices = enumerate_complete_lattices(6)
        assert len(lattices) == 25
        for lat in lattices:
            for members in subsets(lat.n):
                ub = lat.full_mask
                for x in members:
                    ub &= lat.up[x]
                join = lat.up_index[ub]
                assert join == oracle_join_mask(lat.n, lat.up, mask_of(members)) == oracle_join(lat, members)


class TestDistributive:
    def test_chain_and_powerset(self):
        assert FinitePoset.chain(4).is_distributive()
        assert FinitePoset.powerset_lattice(3).is_distributive()

    def test_m3_and_n5_are_not(self):
        assert not named_fixture("M3").is_distributive()
        assert not named_fixture("N5").is_distributive()

    def test_requires_lattice(self, exa_a):
        from chainmail.errors import PreconditionError

        with pytest.raises(PreconditionError):
            exa_a.is_distributive()

    @staticmethod
    def assert_lattice_methods_match_the_oracle_tables(lattices) -> tuple:
        """join, meet, bottom and top against join and meet tables built by
        the subset-scanning oracles, and is_distributive against the law
        read off those tables at every triple; returns (lattices,
        distributive ones)."""
        count = distributive = 0
        for lat in lattices:
            n = lat.n
            jt = [[oracle_join(lat, [a, b]) for b in range(n)] for a in range(n)]
            mt = [[oracle_meet(lat, [a, b]) for b in range(n)] for a in range(n)]
            assert lat.bottom() == oracle_join(lat, [])
            assert lat.top() == oracle_meet(lat, [])
            for x, y in itertools.product(range(n), repeat=2):
                assert lat.join((x, y)) == jt[x][y]
                assert lat.meet((x, y)) == mt[x][y]
            law = all(mt[x][jt[y][z]] == jt[mt[x][y]][mt[x][z]]
                      for x, y, z in itertools.product(range(n), repeat=3))
            assert lat.is_distributive() == law
            count += 1
            distributive += law
        return count, distributive

    def test_lattice_methods_match_the_oracle_tables_up_to_8_elements(self):
        found = self.assert_lattice_methods_match_the_oracle_tables(enumerate_complete_lattices(8))
        assert found == (300, 36)

    @pytest.mark.skipif(os.environ.get("CHM_ACCEPT_DEEP") != "1",
                        reason="set CHM_ACCEPT_DEEP=1 for the lattices on 9 elements")
    def test_lattice_methods_match_the_oracle_tables_up_to_9_elements(self):
        found = self.assert_lattice_methods_match_the_oracle_tables(enumerate_complete_lattices(9))
        assert found == (1378, 62)


class TestJson:
    def test_round_trip(self, exa_a):
        again = FinitePoset.from_json(exa_a.to_json())
        assert again == exa_a
        assert again.validate() is None

    def test_cover_list_closure_mode(self):
        obj = {"n": 3, "leq": [[0, 1], [1, 2]], "closure": "reflexive-transitive"}
        p = FinitePoset.from_json(obj)
        assert p == FinitePoset.chain(3)

    def test_unclosed_relation_fails_validation(self):
        obj = {"n": 3, "leq": [[0, 1], [1, 2]]}
        p = FinitePoset.from_json(obj)
        v = p.validate()
        assert v is not None and v.axiom == "transitivity"

    def test_connectivity_members_are_elements(self):
        # checked before sorting, with the package's element test; valid
        # members are written sorted, as before
        chain = FinitePoset.chain(2)
        for members, bad in (([5, True], 5), ([True, 1], True), ([0, -1], -1), ([1.0], 1.0)):
            with pytest.raises(IndexError, match=f"^element {bad} out of range$"):
                chain.to_json(connectivity=members)
        assert chain.to_json(connectivity=iter([1, 0])) == {"n": 2, "leq": [[0, 1]], "connectivity": [0, 1]}

    def test_bad_shapes(self):
        with pytest.raises(FormatError):
            FinitePoset.from_json([1, 2])
        with pytest.raises(FormatError):
            FinitePoset.from_json({"leq": []})
        with pytest.raises(FormatError):
            FinitePoset.from_json({"n": 2, "leq": [[0, 5]]})

    def test_size_guard(self, monkeypatch):
        monkeypatch.setenv("CHM_MAX_N", "4")
        with pytest.raises(GuardExceeded):
            FinitePoset.from_json({"n": 5, "leq": []})
        monkeypatch.delenv("CHM_MAX_N")
        assert FinitePoset.from_json({"n": 5, "leq": []}).n == 5

    def test_pair_constructors_take_the_json_cap(self, monkeypatch):
        # refused before any row is built: 10^9 rows would not fit, so 65
        # comes first, which a missing guard lets through cheaply
        monkeypatch.delenv("CHM_MAX_N", raising=False)
        with pytest.raises(GuardExceeded, match=r"^poset size 65 exceeds cap 64 "):
            FinitePoset.from_leq_pairs(65, [])
        with pytest.raises(GuardExceeded, match=r"^poset size 1000000000 exceeds cap 64 "):
            FinitePoset.from_leq_pairs(10**9, [])
        monkeypatch.setenv("CHM_MAX_N", "4")
        with pytest.raises(GuardExceeded, match=r"^poset size 5 exceeds cap 4 "):
            FinitePoset.from_cover_pairs(5, [])
        assert FinitePoset.from_cover_pairs(4, [(0, 1)]).n == 4
        assert FinitePoset.antichain(5).n == 5


class TestInvariants:
    def test_join_ignores_dominated_lower_bound(self, small_poset_corpus):
        # adding a lower bound of a mail to the mail leaves the join alone
        for n, posets in small_poset_corpus.items():
            for p in posets:
                for members in subsets(n):
                    if not p.is_mail(members):
                        continue
                    for b in sorted(p.lower_bounds(members)):
                        assert p.join(members) == p.join(set(members) | {b})

    def test_chainmail_components_have_tops_forming_tmd_set(self, small_poset_corpus):
        for posets in small_poset_corpus.values():
            for p in posets:
                if not p.is_chainmail():
                    continue
                maxima = []
                for comp in p.mail_connected_components(range(p.n)):
                    top = p.join(comp)
                    assert top is not None and top in comp
                    maxima.append(top)
                assert p.is_totally_mail_disconnected(maxima)
                assert set(maxima) <= set(p.maximal_elements())
