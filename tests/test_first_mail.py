"""The one mail walker, ``first_mail``, against a subset-scanning oracle.

Each caller is checked for the exact witness it returns: the first bad
antichain in lexicographic order, not just whether one exists.
"""

from __future__ import annotations

import time

from hypothesis import given, settings, strategies as st

from chainmail.connectivity import (
    ConnectivityPair,
    _cl1_violation,
    _preconnectivity_violation,
    _subchainmail_violation,
    cl1,
    is_subchainmail_of,
)
from chainmail.enumeration import enumerate_connectivity_pairs, enumerate_posets
from chainmail.poset import FinitePoset, bits_of, reduced_mail_scan

from conftest import mk, oracle_first_mail, oracle_least, relabel


def joinless(p, allow_unbounded):
    """The chainmail test's ``bad``: no join, counting no upper bound at all
    as a violation unless ``allow_unbounded``."""
    def bad(ub):
        if not ub:
            return not allow_unbounded
        return oracle_least(p, ub) is None
    return bad


def escapes(p, cmask):
    """The subchainmail and CL1 ``bad``: the join exists and leaves C."""
    def bad(ub):
        j = oracle_least(p, ub)
        return j is not None and not cmask >> j & 1
    return bad


def check_scan(p):
    for allow_unbounded in (False, True):
        expected = oracle_first_mail(p, p.full_mask, p.full_mask, joinless(p, allow_unbounded))
        assert reduced_mail_scan(p.n, p.up, p.down, allow_unbounded) == expected


def check_pair(pair):
    lat, cmask = pair.lattice, pair.cmask
    assert _subchainmail_violation(lat, cmask) == oracle_first_mail(lat, cmask, cmask, escapes(lat, cmask))
    nonzero = lat.full_mask & ~(1 << lat.bottom())
    assert _cl1_violation(pair) == oracle_first_mail(lat, cmask, nonzero, escapes(lat, cmask))
    elems = sorted(pair.connected)
    induced = FinitePoset.induced(lat, elems)
    hit = oracle_first_mail(induced, induced.full_mask, induced.full_mask, joinless(induced, False))
    expected = None if hit is None else frozenset(elems[i] for i in bits_of(hit))
    assert _preconnectivity_violation(pair) == expected


class TestReducedMailScan:
    def test_every_poset_up_to_six(self, poset_corpus):
        for posets in poset_corpus.values():
            for p in posets:
                check_scan(p)

    def test_every_poset_on_seven(self):
        for p in enumerate_posets(7, want_catalog=True).catalog:
            check_scan(p)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_posets(self, data):
        n = data.draw(st.integers(0, 10))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                             st.integers(0, max(n - 1, 0))), max_size=20))
        p = FinitePoset.from_leq_pairs(n, [(a, b) for a, b in pairs if a < b], close=True)
        p = relabel(p, data.draw(st.permutations(range(n))))
        check_scan(p)
        cmask = data.draw(st.integers(0, p.full_mask))
        assert _subchainmail_violation(p, cmask) == oracle_first_mail(p, cmask, cmask, escapes(p, cmask))


class TestConnectivityWalkers:
    def test_every_pair_on_lattices_up_to_six(self):
        count = 0
        for pair in enumerate_connectivity_pairs(6):
            check_pair(pair)
            count += 1
        assert count == 1166

    def test_three_element_mail_without_a_bad_pair(self):
        # three members over a common lower bound: each two of them have
        # two minimal upper bounds, so no pair has a join, while all three
        # have the join 4, outside C
        covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4),
                  (1, 5), (2, 5), (1, 6), (3, 6), (2, 7), (3, 7)]
        p = FinitePoset.from_cover_pairs(8, covers)
        assert _subchainmail_violation(p, 0b1111) == 0b1110
        assert not is_subchainmail_of(p, range(4))


class TestWide:
    def test_m40_returns_quickly(self):
        p = mk(40)
        start = time.perf_counter()
        pair = ConnectivityPair(p, frozenset(range(p.n)))
        assert p.is_chainmail()
        assert is_subchainmail_of(p, range(p.n))
        assert cl1(pair)
        # without the top in C, two atoms over the bottom join outside C
        assert _subchainmail_violation(p, p.full_mask >> 1) == 0b110
        assert time.perf_counter() - start < 5.0
