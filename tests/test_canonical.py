"""Canonical keys: isomorphism invariance, separation, orbit correctness."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random

from hypothesis import given, settings, strategies as st

from chainmail import canon
from chainmail.enumeration import enumerate_posets
from chainmail.generators import named_fixture
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


# SHA-256 over the key, automorphism orbits and canonical up-rows of every
# poset with at most 7 elements, as catalogued and seeded-relabeled; taken
# when the best labeling was still tracked apart from the leaf record
LABELING_SHA256 = "6ffd2c9ade837bf64e8ab10aa6e00d7da9384f93670688543edb135aae3871cc"


def test_labelings_are_pinned(poset_corpus):
    h = hashlib.sha256()
    rng = random.Random(20261019)
    catalogs = [poset_corpus[n] for n in range(7)] + [enumerate_posets(7, want_catalog=True).catalog]
    for posets in catalogs:
        for p in posets:
            perm = list(range(p.n))
            rng.shuffle(perm)
            for q in (p, relabel(p, perm)):
                h.update(q.canonical_key())
                h.update(repr([sorted(o) for o in q.automorphism_orbits()]).encode())
                h.update(repr(q.canonical_form().up).encode())
    assert h.hexdigest() == LABELING_SHA256


def test_least_leaf_wins_where_cells_are_not_orbits():
    # a 4-crown beside a 6-crown: the stable partition is {minimal, maximal},
    # but no automorphism swaps the crowns, so the search meets leaves with
    # different encodings (on at most 8 elements every leaf encodes alike)
    covers = [(a, b) for a in (0, 1) for b in (5, 6)]
    covers += [(2, 7), (2, 8), (3, 8), (3, 9), (4, 9), (4, 7)]
    p = FinitePoset.from_cover_pairs(10, covers)
    assert canon.stable_partition(p.n, p.up, p.down) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert len(p.automorphism_orbits()) == 4
    assert p.canonical_key().hex() == "000a08010020040080701a184a0b01"


def test_empty_poset_has_one_empty_leaf():
    result = canon.canonicalize(0, (), ())
    assert (result.key, result.perm, result.relabeled_up, result.generators) == (b"\x00\x00", (), (), [])
    assert FinitePoset(0, ()).automorphism_orbits() == []


def test_each_poset_canonicalizes_once(monkeypatch):
    calls = []
    real = canon.canonicalize

    def spy(n, up, down, **kwargs):
        calls.append(up)
        return real(n, up, down, **kwargs)

    monkeypatch.setattr(canon, "canonicalize", spy)
    # fresh instances: named_fixture hands out one shared poset per name
    p = FinitePoset(7, named_fixture("exaA").up)
    q = relabel(p, [6, 5, 4, 3, 2, 1, 0])
    p.canonical_key()
    p.canonical_form()
    p.automorphism_orbits()
    assert calls == [p.up]
    assert p.is_isomorphic(q) and q.is_isomorphic(p)
    q.canonical_form()
    assert calls == [p.up, q.up]


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
