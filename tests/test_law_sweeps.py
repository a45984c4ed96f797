"""Fast corpus sweeps (sizes up to 5) plus laws not in the acceptance list.

The acceptance suite repeats the central sweeps at the full corpus sizes;
this module keeps the same checks on the smaller corpus so failures
surface quickly during development, and adds the sink-closure chain and
the exterior union-join law.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from chainmail.connectivity import ConnectivityPair, borger_implication_check
from chainmail.enumeration import enumerate_connectivity_pairs
from chainmail.poset import FinitePoset, bits_of

from sweeps import (
    check_chainmail_equivalences,
    check_exterior_laws,
    check_exterior_union_joins,
    check_lattice_invariants,
    check_pair_invariants,
    check_components_unique,
)


def test_chainmail_equivalences_small(small_poset_corpus):
    failures = []
    for posets in small_poset_corpus.values():
        for p in posets:
            failures += check_chainmail_equivalences(p)
    assert not failures, failures[:5]


def test_exterior_laws_small(small_poset_corpus):
    failures = []
    for posets in small_poset_corpus.values():
        for p in posets:
            failures += check_exterior_laws(p)
    assert not failures, failures[:5]


@pytest.mark.skipif(os.environ.get("CHM_ACCEPT_DEEP") != "1",
                    reason="set CHM_ACCEPT_DEEP=1 for the posets on 7 elements")
def test_exterior_laws_on_7_elements():
    from chainmail.enumeration import enumerate_posets

    posets = enumerate_posets(7, want_catalog=True).catalog
    assert len(posets) == 2045
    failures = []
    for p in posets:
        failures += check_exterior_laws(p)
    assert not failures, failures[:5]


def test_exterior_union_joins_small(small_poset_corpus):
    failures = []
    for n in range(5):
        for p in small_poset_corpus[n]:
            if p.is_chainmail():
                failures += check_exterior_union_joins(p)
    assert not failures, failures[:5]


def test_lattice_invariants_small():
    failures = []
    seen = set()
    for pair in enumerate_connectivity_pairs(5):
        if pair.lattice not in seen:
            seen.add(pair.lattice)
            failures += check_lattice_invariants(pair.lattice)
    assert not failures, failures[:5]


def test_pair_invariants_small():
    failures = []
    for pair in enumerate_connectivity_pairs(5):
        failures += check_pair_invariants(pair)
        failures += check_components_unique(pair)
    assert not failures, failures[:5]


def test_sink_closure_chain_on_lattice_pairs():
    # on complete lattices the premise holds, so the three statements align
    # with the connectivity verdict
    from chainmail.connectivity import is_subchainmail_of

    for pair in enumerate_connectivity_pairs(4):
        report = borger_implication_check(pair.lattice, pair.connected)
        assert report.chain_holds
        assert report.local_join_premise
        assert report.multicoreflective == is_subchainmail_of(pair.lattice, pair.connected)
        if report.multicoreflective:
            assert report.orthogonality_closed and report.local_join_closed


def test_sampled_pairs_on_seven_element_lattices():
    # beyond the exhaustive size-6 corpus: seeded random subsets over every
    # 7-element lattice, checking the adjunction characterization and the
    # closure-form agreement
    import random

    from chainmail.connectivity import (
        cl0,
        cl1,
        cl1_half,
        cl1_prime,
        cl2,
        galois_adjunction_holds,
        is_subchainmail_of,
    )
    from chainmail.enumeration import enumerate_posets

    lattices = [p for p in enumerate_posets(7, want_catalog=True).catalog if p.is_complete_lattice()]
    assert len(lattices) == 53
    rng = random.Random(718)
    for lat in lattices:
        masks = {rng.getrandbits(lat.n) for _ in range(40)}
        masks |= {0, (1 << lat.n) - 1}
        for cmask in sorted(masks):
            pair = ConnectivityPair(lat, frozenset(bits_of(cmask)))
            assert galois_adjunction_holds(pair) == is_subchainmail_of(lat, pair.connected)
            assert cl1(pair) == cl1_prime(pair)
            if cl0(pair) or cl2(pair):
                assert cl1_half(pair)


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                pairs.append((a, b))
    return FinitePoset.from_cover_pairs(n, pairs)


@settings(max_examples=40, deadline=None)
@given(random_posets())
def test_chainmail_equivalences_property(p):
    assert not check_chainmail_equivalences(p)


@settings(max_examples=40, deadline=None)
@given(random_posets())
def test_exterior_completeness_property(p):
    from chainmail.exterior import exterior_is_complete

    assert exterior_is_complete(p) == p.is_chainmail()


@settings(max_examples=25, deadline=None)
@given(random_posets(), st.integers(min_value=0, max_value=1 << 20))
def test_adjunction_matches_closure_property(p, seed):
    from chainmail.connectivity import galois_adjunction_holds, is_subchainmail_of

    if not p.is_complete_lattice():
        return
    cmask = seed & ((1 << p.n) - 1)
    pair = ConnectivityPair(p, frozenset(bits_of(cmask)))
    assert galois_adjunction_holds(pair) == is_subchainmail_of(p, pair.connected)
