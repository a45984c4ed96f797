"""Canonical keys: isomorphism invariance, separation, orbit correctness."""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from chainmail import canon
from chainmail.enumeration import enumerate_posets
from chainmail.generators import named_fixture
from chainmail.poset import FinitePoset

from conftest import (consecutive_twin_swaps, oracle_canonical, oracle_refine, oracle_relabel,
                      oracle_stable_partition, relabel, twin_cells)


def brute_force_automorphisms(p: FinitePoset) -> set:
    """The automorphisms among all n! permutations."""
    return {perm for perm in itertools.permutations(range(p.n)) if relabel(p, perm) == p}


def generated_group(n: int, gens) -> set:
    """The permutations generated by ``gens``, by closing the identity
    under composition with each generator."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(g[e] for e in x)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


def brute_force_orbits(p: FinitePoset) -> list:
    """Automorphism orbits via all n! permutations."""
    autos = brute_force_automorphisms(p)
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


# SHA-256 over all four fields of ``canonicalize`` (key, perm, canonical
# up-rows and the generator list, in order) on the same corpus; taken when
# every partition still went through the search
CANON_RESULT_SHA256 = "20a1e93051a4f341d7e5ede99fedb6e3e31869543698167fa15edca5a504ab78"


@pytest.fixture(scope="module")
def corpus_to_7(poset_corpus):
    """Every poset with at most 7 elements, as catalogued and then seeded-
    relabeled, in catalog order."""
    rng = random.Random(20261019)
    catalogs = [poset_corpus[n] for n in range(7)] + [enumerate_posets(7, want_catalog=True).catalog]
    corpus = []
    for posets in catalogs:
        for p in posets:
            perm = list(range(p.n))
            rng.shuffle(perm)
            corpus += [p, relabel(p, perm)]
    return corpus


def test_labelings_are_pinned(corpus_to_7):
    h = hashlib.sha256()
    for q in corpus_to_7:
        h.update(q.canonical_key())
        h.update(repr([sorted(o) for o in q.automorphism_orbits()]).encode())
        h.update(repr(q.canonical_form().up).encode())
    assert h.hexdigest() == LABELING_SHA256


def test_canon_results_are_pinned(corpus_to_7):
    h = hashlib.sha256()
    for q in corpus_to_7:
        result = canon.canonicalize(q.n, q.up, q.down)
        h.update(result.key)
        h.update(repr((result.perm, result.relabeled_up, result.generators)).encode())
    assert h.hexdigest() == CANON_RESULT_SHA256


def test_least_leaf_wins_where_cells_are_not_orbits():
    # a 4-crown beside a 6-crown: the stable partition is {minimal, maximal},
    # but no automorphism swaps the crowns, so the search meets leaves with
    # different encodings (on at most 8 elements every leaf encodes alike)
    covers = [(a, b) for a in (0, 1) for b in (5, 6)]
    covers += [(2, 7), (2, 8), (3, 8), (3, 9), (4, 9), (4, 7)]
    p = FinitePoset.from_cover_pairs(10, covers)
    assert canon.stable_partition(p.n, p.up, p.down)[0] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
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
                stable = canon.stable_partition(n, up, down)[0]
                assert stable == oracle_refine(n, up, down, [list(range(n))])
                for idx, cell in enumerate(stable):
                    for v in cell if len(cell) > 1 else ():
                        rest = [w for w in cell if w != v]
                        cells = stable[:idx] + [[v], rest] + stable[idx + 1:]
                        want = oracle_refine(n, up, down, cells)
                        assert canon._refine(n, up, down, cells, [[v], rest])[0] == want
                        # the search's call: rest follows from [v] and their cell
                        assert canon._refine(n, up, down, cells, [[v]])[0] == want


def assert_stable_partition_matches_refining_round_one(corpus):
    rng = random.Random(20261023)
    for n, posets in corpus.items():
        for p in posets:
            perm = list(range(n))
            rng.shuffle(perm)
            for q in (p, relabel(p, perm)):
                cells, twin = canon.stable_partition(n, q.up, q.down)
                assert cells == oracle_stable_partition(n, q.up, q.down)
                assert twin == twin_cells(q.up, q.down, cells)


def test_twin_round_one_is_the_refined_partition(poset_corpus):
    # round one is returned unrefined when its cells are twin groups; the
    # full refinement from it gives the same partition, and the twin
    # verdict is taken on the cells returned, refined or not
    assert_stable_partition_matches_refining_round_one(poset_corpus)


@pytest.mark.skipif(os.environ.get("CHM_ACCEPT_DEEP") != "1",
                    reason="set CHM_ACCEPT_DEEP=1 for the posets on 7 elements")
def test_twin_round_one_is_the_refined_partition_n7():
    assert_stable_partition_matches_refining_round_one({7: enumerate_posets(7, want_catalog=True).catalog})


def test_pruned_search_matches_the_unpruned_tree(poset_corpus):
    # twin swaps and leaf automorphisms prune only leaves whose encodings
    # occur earlier, so the first least leaf is the unpruned tree's
    for seed in (20261019, 20261020):
        rng = random.Random(seed)
        for n, posets in poset_corpus.items():
            for p in posets:
                perm = list(range(n))
                rng.shuffle(perm)
                q = relabel(p, perm)
                result = canon.canonicalize(n, q.up, q.down)
                assert (result.key, result.perm, result.relabeled_up) == oracle_canonical(n, q.up, q.down)


def assert_generators_generate_the_automorphism_group(corpus):
    rng = random.Random(20261021)
    for n, posets in corpus.items():
        for p in posets:
            perm = list(range(n))
            rng.shuffle(perm)
            for q in (p, relabel(p, perm)):
                gens = canon.canonicalize(n, q.up, q.down).generators
                assert generated_group(n, gens) == brute_force_automorphisms(q)


def test_generators_generate_the_automorphism_group(small_poset_corpus):
    assert_generators_generate_the_automorphism_group(small_poset_corpus)


@pytest.mark.skipif(os.environ.get("CHM_ACCEPT_DEEP") != "1",
                    reason="set CHM_ACCEPT_DEEP=1 for the posets on 6 elements")
def test_generators_generate_the_automorphism_group_n6(poset_corpus):
    assert_generators_generate_the_automorphism_group({6: poset_corpus[6]})


def counting_refinements(monkeypatch) -> list:
    """Record the arguments of every ``canon._refine`` call from now on."""
    calls = []
    real = canon._refine

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(canon, "_refine", counting)
    return calls


def test_twin_swaps_prune_the_antichain_to_one_path(monkeypatch):
    # round one leaves one cell, a twin group, so no refinement runs at
    # all: the search would follow one path and meet no new generator, and
    # the seven swaps of consecutive twins generate S_8
    calls = counting_refinements(monkeypatch)
    p = FinitePoset.antichain(8)
    result = canon.canonicalize(p.n, p.up, p.down)
    assert calls == []
    assert len(result.generators) == 7
    assert result.perm == tuple(range(8))


def test_twin_pruning_inside_a_search(monkeypatch):
    # three isolated points beside the 4-crown and 6-crown: the crowns'
    # cells are not twins, so the search runs, and the twin cell costs one
    # refinement per level before the crowns' search, as it runs alone
    covers = [(a, b) for a in (0, 1) for b in (5, 6)]
    covers += [(2, 7), (2, 8), (3, 8), (3, 9), (4, 9), (4, 7)]
    crowns = FinitePoset.from_cover_pairs(10, covers)
    p = FinitePoset.from_cover_pairs(13, covers)
    cells = canon.stable_partition(p.n, p.up, p.down)[0]
    assert cells == [[10, 11, 12], [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    calls = counting_refinements(monkeypatch)
    canon.canonicalize(crowns.n, crowns.up, crowns.down)
    crown_search = [args[4] for args in calls[1:]]
    calls.clear()
    result = canon.canonicalize(p.n, p.up, p.down)
    assert [args[4] for args in calls[1:]] == [[[10]], [[11]]] + crown_search
    assert result.generators[:2] == consecutive_twin_swaps(13, [[10, 11, 12]])
    assert result.perm[:3] == (10, 11, 12)
    assert (result.key, result.perm, result.relabeled_up) == oracle_canonical(p.n, p.up, p.down)
    assert result.orbit(10) == {10, 11, 12}
    assert len(p.automorphism_orbits()) == 5


def test_twin_only_partitions_skip_the_search(monkeypatch, corpus_to_7):
    # wherever each stable cell of two or more elements is one twin group,
    # the result is the search's one leaf without another refinement
    calls = counting_refinements(monkeypatch)
    skipped = 0
    for q in corpus_to_7:
        n, up, down = q.n, q.up, q.down
        partition = canon.stable_partition(n, up, down)
        cells = partition[0]
        if not twin_cells(up, down, cells):
            continue
        calls.clear()
        result = canon.canonicalize(n, up, down, partition=partition)
        assert calls == []
        assert result.perm == tuple(v for cell in cells for v in cell)
        assert result.generators == consecutive_twin_swaps(n, cells)
        assert (result.key, result.perm, result.relabeled_up) == oracle_canonical(n, up, down)
        skipped += 1
    # 4,438 of the 4,902 posets
    assert skipped == 4438


@pytest.fixture(scope="module")
def one_leaf_to_6(poset_corpus):
    """(n, up, down, stable cells) of every poset with at most 6 elements,
    as catalogued and seeded-relabeled, whose stable cells are twin groups:
    the canonicalizations that build their generators on first read."""
    rng = random.Random(20261022)
    found = []
    for n, posets in poset_corpus.items():
        for p in posets:
            perm = list(range(n))
            rng.shuffle(perm)
            for q in (p, relabel(p, perm)):
                cells = canon.stable_partition(n, q.up, q.down)[0]
                if twin_cells(q.up, q.down, cells):
                    found.append((n, q.up, q.down, cells))
    # 738 of the 812
    assert len(found) == 738
    return found


def test_one_leaf_generators_are_the_twin_swaps(one_leaf_to_6):
    for n, up, down, cells in one_leaf_to_6:
        result = canon.canonicalize(n, up, down)
        assert result.generators == consecutive_twin_swaps(n, cells)
        assert result.generators is result.generators


def test_one_leaf_orbits_are_the_walked_orbits(one_leaf_to_6):
    # read before the generators are, and against the twin swaps walked
    for n, up, down, cells in one_leaf_to_6:
        result = canon.canonicalize(n, up, down)
        orbits = [result.orbit(v) for v in range(n)]
        swaps = consecutive_twin_swaps(n, cells)
        assert orbits == [canon._orbit(v, swaps) for v in range(n)]
        assert orbits == [result.orbit(v) for v in range(n)]


def test_one_leaf_results_survive_pickling(one_leaf_to_6):
    # pickled before any field is read, as the enumerator's frontier nodes
    # are sent to its workers under spawn; each field is then first built
    # in the copy, and must equal that of a result never pickled
    for n, up, down, cells in one_leaf_to_6:
        result = canon.canonicalize(n, up, down)
        assert (result._perm, result._key, result._rows, result._generators) == (None,) * 4
        copy = pickle.loads(pickle.dumps(result))
        swaps = consecutive_twin_swaps(n, cells)
        masks = list(range(1 << n))
        # the twin groups, read through the prefix rule
        assert list(copy.orbit_firsts(masks)) == list(result.orbit_firsts(masks))
        assert copy.perm == result.perm
        assert (copy.key, copy.relabeled_up) == (result.key, result.relabeled_up)
        assert [copy.orbit(v) for v in range(n)] == [canon._orbit(v, swaps) for v in range(n)]
        assert copy.generators == swaps == result.generators


def test_search_results_build_key_and_rows_on_first_read(monkeypatch):
    # the crowns of test_least_leaf_wins_where_cells_are_not_orbits: the
    # search relabels its leaves, and the result keeps the winner's
    # labeling; its key and rows come from one more relabeling when first
    # read, and the labeling, generators and orbits need neither
    covers = [(a, b) for a in (0, 1) for b in (5, 6)]
    covers += [(2, 7), (2, 8), (3, 8), (3, 9), (4, 9), (4, 7)]
    p = FinitePoset.from_cover_pairs(10, covers)
    calls = Counter()
    for name in ("_key", "_rows_of", "_relabel"):
        def counting(*args, _real=getattr(canon, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(canon, name, counting)
    result = canon.canonicalize(p.n, p.up, p.down)
    leaves = calls["_relabel"]
    assert calls == {"_relabel": leaves}
    assert result.perm == (2, 3, 4, 0, 1, 5, 6, 9, 7, 8)
    assert (len(result.generators), result.orbit(0)) == (5, {0, 1})
    assert calls == {"_relabel": leaves}
    assert result.key.hex() == "000a08010020040080701a184a0b01"
    assert calls == {"_relabel": leaves + 1, "_key": 1, "_rows_of": 1}
    assert (result.key, result.perm, result.relabeled_up) == oracle_canonical(p.n, p.up, p.down)
    assert calls == {"_relabel": leaves + 1, "_key": 1, "_rows_of": 1}


def test_search_results_survive_pickling(poset_corpus):
    # as test_one_leaf_results_survive_pickling, for the results whose
    # labeling searches: pickled before the key and rows are read, which
    # the copy then builds, equal to those of a result never pickled
    searched = 0
    for n, posets in poset_corpus.items():
        masks = list(range(1 << n))
        for p in posets:
            result = canon.canonicalize(n, p.up, p.down)
            if result._cells is not None:
                continue
            assert (result._key, result._rows) == (None, None)
            copy = pickle.loads(pickle.dumps(result))
            assert (copy.perm, copy.generators) == (result.perm, result.generators)
            assert (copy.key, copy.relabeled_up) == (result.key, result.relabeled_up)
            assert copy.packed(canon.stride(n)) == result.packed(canon.stride(n))
            assert list(copy.orbit_firsts(masks)) == list(result.orbit_firsts(masks))
            searched += 1
    # 37 of the 406
    assert searched == 37


@pytest.mark.parametrize("n", [0, 1, 8, 63, 64, 65, 70])
def test_relabel_moves_columns_as_the_bits_move(n):
    # any rows, not only up-rows, and sizes on both sides of a machine word;
    # at the stride n the encoding, at a wider one the same rows spaced out
    rng = random.Random(20261026 + n)
    for _ in range(5):
        up = [rng.getrandbits(n) | 1 << v for v in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        rows, enc = oracle_relabel(n, up, perm)
        assert canon._relabel(n, up, tuple(perm), n) == enc
        assert canon._rows_of(n, enc) == rows
        for stride in (n + 1, n + 7):
            assert canon._relabel(n, up, tuple(perm), stride) == sum(r << i * stride for i, r in enumerate(rows))


@pytest.mark.parametrize("n,stride", [(0, 8), (1, 8), (8, 8), (9, 16), (16, 16), (17, 32), (32, 32), (33, 64),
                                      (64, 64)])
def test_packed_rows_round_trip_and_keep_the_encoding_order(n, stride):
    # any rows below 2^n, packed at the stride, unpack with one call of the
    # layout and compare as their encodings at the stride n do, also where
    # the last rows agree
    assert canon.stride(n) == stride
    layout = canon.row_struct(n)
    assert layout.size == n * stride // 8
    rng = random.Random(20261033 + n)
    vectors = [tuple(rng.getrandbits(n) for _ in range(n)) for _ in range(20)]
    vectors += [tuple(rng.getrandbits(n) for _ in range(n - 1)) + v[-1:] for v in vectors[:5]]

    def pack(rows, width):
        return sum(r << i * width for i, r in enumerate(rows))

    for rows in vectors:
        assert layout.unpack(pack(rows, stride).to_bytes(layout.size, "little")) == rows
    assert sorted(vectors, key=lambda rows: pack(rows, stride)) == sorted(vectors, key=lambda rows: pack(rows, n))
    # the one route of CanonResult.packed, a relabeling by perm, gives the
    # same int before the rows are read and after, on the antichain and
    # the chain
    for up, down in ((tuple(1 << v for v in range(n)),) * 2,
                     (tuple((1 << n) - (1 << v) for v in range(n)), tuple((2 << v) - 1 for v in range(n)))):
        result = canon.canonicalize(n, up, down)
        packed = result.packed(stride)
        assert layout.unpack(packed.to_bytes(layout.size, "little")) == result.relabeled_up
        assert result.packed(stride) == packed


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
