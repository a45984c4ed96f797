"""Canonical keys: isomorphism invariance, separation, orbit correctness."""

from __future__ import annotations

import gc
import itertools
import random

from hypothesis import given, settings, strategies as st

from chainmail import canon
from chainmail.poset import FinitePoset

from conftest import oracle_refine, relabel


def brute_force_orbits(p: FinitePoset) -> list:
    """Automorphism orbits via all n! permutations."""
    autos = []
    for perm in itertools.permutations(range(p.n)):
        if relabel(p, perm) == p:
            autos.append(perm)
    orbits = []
    seen = set()
    for v in range(p.n):
        if v in seen:
            continue
        orb = {g[v] for g in autos}
        seen |= orb
        orbits.append(frozenset(orb))
    return sorted(orbits, key=min)


def test_key_invariant_under_all_relabelings_small(small_poset_corpus):
    for n, posets in small_poset_corpus.items():
        for p in posets:
            key = p.canonical_key()
            for perm in itertools.permutations(range(n)):
                assert relabel(p, perm).canonical_key() == key


def test_key_invariant_under_random_relabelings_n9():
    rng = random.Random(20240901)
    for _ in range(40):
        n = rng.randint(6, 9)
        covers = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
        p = FinitePoset.from_cover_pairs(n, covers)
        key = p.canonical_key()
        for _ in range(25):
            perm = list(range(n))
            rng.shuffle(perm)
            assert relabel(p, perm).canonical_key() == key


def test_distinct_classes_get_distinct_keys(poset_corpus):
    for posets in poset_corpus.values():
        keys = [p.canonical_key() for p in posets]
        assert len(set(keys)) == len(keys)


def test_canonicalize_leaves_no_reference_cycle():
    # the search state is freed when canonicalize returns, not at a later
    # collection; the enumerator canonicalizes tens of thousands of posets
    p = FinitePoset.antichain(5)
    down = p.down
    gc.collect()
    gc.disable()
    try:
        canon.canonicalize(p.n, p.up, down)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_refine_matches_counting_against_every_cell(poset_corpus):
    # from the unit partition and after every depth-1 individualization,
    # on each poset up to 6 elements as catalogued and relabeled
    rng = random.Random(20261018)
    for n, posets in poset_corpus.items():
        for p in posets:
            perm = list(range(n))
            rng.shuffle(perm)
            for q in (p, relabel(p, perm)):
                up, down = q.up, q.down
                stable = canon.stable_partition(n, up, down)
                assert stable == oracle_refine(n, up, down, [list(range(n))])
                for idx, cell in enumerate(stable):
                    for v in cell if len(cell) > 1 else ():
                        rest = [w for w in cell if w != v]
                        cells = stable[:idx] + [[v], rest] + stable[idx + 1:]
                        want = oracle_refine(n, up, down, cells)
                        assert canon._refine(n, up, down, cells, [[v], rest]) == want
                        # the search's call: rest follows from [v] and their cell
                        assert canon._refine(n, up, down, cells, [[v]]) == want


def test_chain_vs_v_shape():
    chain = FinitePoset.chain(3)
    vee = FinitePoset.from_cover_pairs(3, [(0, 2), (1, 2)])
    assert chain.canonical_key() != vee.canonical_key()
    assert not chain.is_isomorphic(vee)


def test_three_element_connected_chainmails_distinct():
    chain = FinitePoset.chain(3)
    rooted = FinitePoset.from_cover_pairs(3, [(0, 2), (1, 2)])
    assert chain.is_chainmail() and rooted.is_chainmail()
    assert chain.is_mail_connected(range(3)) and rooted.is_mail_connected(range(3))
    assert chain.canonical_key() != rooted.canonical_key()


def test_canonical_form_is_isomorphic_relabeling(small_poset_corpus):
    for posets in small_poset_corpus.values():
        for p in posets:
            c = p.canonical_form()
            assert c.canonical_key() == p.canonical_key()
            assert c.validate() is None


def test_orbits_match_brute_force(small_poset_corpus):
    for n in range(6):
        for p in small_poset_corpus[n]:
            assert p.automorphism_orbits() == brute_force_orbits(p)


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                pairs.append((a, b))
    return FinitePoset.from_cover_pairs(n, pairs)


@settings(max_examples=60, deadline=None)
@given(random_posets(), st.randoms(use_true_random=False))
def test_relabeling_property(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    q = relabel(p, perm)
    assert q.canonical_key() == p.canonical_key()
    assert p.is_isomorphic(q)
