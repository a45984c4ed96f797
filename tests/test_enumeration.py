"""Isomorph-free generation: counts, catalogs, determinism, pair corpus."""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
from collections import Counter
import os
import subprocess
import sys
import types

import pytest

from chainmail import canon, enumeration

from chainmail.enumeration import (
    enumerate_complete_lattices,
    enumerate_connected_chainmails,
    enumerate_connectivity_pairs,
    enumerate_posets,
)
from chainmail.errors import GuardExceeded, PreconditionError
from chainmail.generators import forest_poset_check
from chainmail.poset import (FinitePoset, downset_masks, joins_inside, pair_joins,
                             reduced_mail_scan, transpose)

from conftest import (brute_force_poset_count, consecutive_twin_swaps, lattices_by_filtering_all_posets,
                      oracle_accepted, oracle_nodes, oracle_orbit_firsts, twin_cells)

POSET_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}
CHAINMAIL_COUNTS = {0: 1, 1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 62, 7: 303}

# catalog partition by shape, frozen from a first run; the tree column
# matches rooted-tree counts minus the chain, the lattice column matches
# lattice counts minus the chain
SHAPE_PARTITION = {
    0: (1, 0, 0, 0),
    1: (1, 0, 0, 0),
    2: (1, 0, 0, 0),
    3: (1, 1, 0, 0),
    4: (1, 3, 1, 0),
    5: (1, 8, 4, 3),
    6: (1, 19, 14, 28),
    7: (1, 47, 52, 203),
}

# OEIS A006966 (Heitzig & Reinhold, "Counting finite lattices", Algebra
# Universalis 48, 2002), and A006982 for the distributive ones
LATTICE_COUNTS_BY_SIZE = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078}
DEEP_LATTICE_COUNTS = {10: 5994, 11: 37622}
DISTRIBUTIVE_COUNTS_BY_SIZE = {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15}

# SHA-256 of the JSON lines of the n = 7 chainmail catalog, as written by
# `chainmail enumerate --n 7 --catalog FILE`
N7_CATALOG_SHA256 = "b0b5453937d00ed7a567b44d6cfe13065050cbc53504eb93ed6309608b87a762"

# the same for `chainmail enumerate --n 8 --catalog FILE`, 1,842 classes
N8_CATALOG_SHA256 = "a4f2e8df827885b945e676ee1771c13571f30f1e9e8f4b0266044f36ffd453c5"

# SHA-256 of the same JSON lines for the catalogs made by the search itself:
# enumerate_posets(7, want_catalog=True), 2,045 classes,
# enumerate_posets(8, want_catalog=True), 16,999 classes, and
# enumerate_complete_lattices(8), 300 lattices of 1 to 8 elements
POSETS7_CATALOG_SHA256 = "98490e9ccc7da2c41faf9e2c028c4c4e8fb6d3233c92e5eb2c2ee036a8bc310a"
POSETS8_CATALOG_SHA256 = "096f25a875b58098e645b684efb4ec4861e5f0ccf52143f0ae53ca76640b9354"
LATTICES8_CATALOG_SHA256 = "50c1ed308b267ad665d6b6103b66ed706ad74c9d8cd785268dbeb0bae1fc3aeb"


def catalog_sha256(catalog) -> str:
    return hashlib.sha256("".join(p.to_json_line() + "\n" for p in catalog).encode()).hexdigest()


class TestPosetCounts:
    @pytest.mark.parametrize("n", range(5))
    def test_matches_brute_force(self, n):
        assert enumerate_posets(n).count == brute_force_poset_count(n)

    @pytest.mark.parametrize("n,expected", sorted(POSET_COUNTS.items()))
    def test_known_values(self, n, expected):
        assert enumerate_posets(n).count == expected

    def test_cap(self):
        with pytest.raises(GuardExceeded):
            enumerate_posets(10)


class TestChainmailCounts:
    @pytest.mark.parametrize("n,expected", sorted(CHAINMAIL_COUNTS.items()))
    def test_published_table(self, n, expected):
        assert enumerate_connected_chainmails(n).count == expected

    def test_two_elements_only_the_chain(self):
        result = enumerate_connected_chainmails(2, want_catalog=True)
        assert result.count == 1
        assert result.catalog[0] == FinitePoset.chain(2)

    def test_agrees_with_filtering_all_posets(self, poset_corpus):
        for n in range(7):
            filtered = [
                p
                for p in poset_corpus[n]
                if p.is_chainmail() and len(p.mail_connected_components(range(n))) <= 1
            ]
            assert enumerate_connected_chainmails(n).count == len(filtered)

    def test_deep_sizes_are_gated(self):
        with pytest.raises(GuardExceeded):
            enumerate_connected_chainmails(9)
        with pytest.raises(GuardExceeded):
            enumerate_connected_chainmails(11, deep=True)


def with_top(n: int, rows) -> tuple:
    top = 1 << n
    return tuple(r | top for r in rows) + (top,)


def completable_classes(corpus, n: int) -> list:
    """Canonical posets on n elements in which every reduced mail with an
    upper bound has a least one, in canonical-key order."""
    return [p for p in corpus[n]
            if reduced_mail_scan(n, p.up, p.down, allow_unbounded=True) is None]


class TestTopAddition:
    """Connected chainmails on n + 1 elements are completable posets on n
    elements with a top added, and so are their canonical forms."""

    @pytest.mark.parametrize("n", range(7))
    def test_canonical_form_gains_the_top_and_keeps_key_order(self, n, poset_corpus):
        completable = completable_classes(poset_corpus, n)
        assert len(completable) == CHAINMAIL_COUNTS[n + 1]
        keys = []
        for p in completable:
            rows = with_top(n, p.up)
            result = canon.canonicalize(n + 1, rows, FinitePoset(n + 1, rows).down)
            assert result.relabeled_up == rows
            keys.append(result.key)
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_catalog_is_completable_classes_with_a_top(self, poset_corpus):
        for n in range(7):
            catalog = enumerate_connected_chainmails(n + 1, want_catalog=True).catalog
            assert [p.up for p in catalog] == [with_top(n, p.up)
                                               for p in completable_classes(poset_corpus, n)]

    def test_n7_catalog_bytes_are_pinned(self):
        catalog = enumerate_connected_chainmails(7, want_catalog=True).catalog
        assert catalog_sha256(catalog) == N7_CATALOG_SHA256

    def test_n8_catalog_bytes_are_pinned(self):
        result = enumerate_connected_chainmails(8, want_catalog=True)
        assert result.count == len(result.catalog) == 1842
        assert catalog_sha256(result.catalog) == N8_CATALOG_SHA256


class TestCatalogs:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_poset_catalog_bytes_are_pinned(self, threads):
        result = enumerate_posets(7, want_catalog=True, threads=threads)
        assert result.count == len(result.catalog) == POSET_COUNTS[7]
        assert catalog_sha256(result.catalog) == POSETS7_CATALOG_SHA256

    def test_lattice_catalog_bytes_are_pinned(self):
        catalog = enumerate_complete_lattices(8)
        assert len(catalog) == sum(LATTICE_COUNTS_BY_SIZE[n] for n in range(1, 9))
        assert catalog_sha256(catalog) == LATTICES8_CATALOG_SHA256

    def test_entries_are_canonical_distinct_and_qualify(self):
        result = enumerate_connected_chainmails(6, want_catalog=True)
        assert result.count == len(result.catalog)
        keys = set()
        for p in result.catalog:
            assert p.validate() is None
            assert p.is_chainmail()
            assert len(p.mail_connected_components(range(p.n))) <= 1
            assert p == p.canonical_form()
            keys.add(p.canonical_key())
        assert len(keys) == result.count

    def test_catalog_sorted_by_key(self):
        result = enumerate_connected_chainmails(5, want_catalog=True)
        keys = [p.canonical_key() for p in result.catalog]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", range(8))
    def test_shape_partition_golden(self, n):
        result = enumerate_connected_chainmails(n, want_catalog=True)
        chains = trees = lattices = other = 0
        for p in result.catalog:
            is_chain = all(p.leq(a, b) or p.leq(b, a) for a in range(n) for b in range(n))
            if is_chain:
                chains += 1
            elif forest_poset_check(p):
                trees += 1
            elif p.is_complete_lattice():
                lattices += 1
            else:
                other += 1
        assert (chains, trees, lattices, other) == SHAPE_PARTITION[n]


def naive_global_dedupe_posets(n: int) -> set:
    """Second generation oracle: grow by maximal elements with no acceptance
    rule at all, deduplicating globally by canonical key per level."""
    from chainmail.poset import bits_of

    level = {FinitePoset(0, ()).canonical_key(): FinitePoset(0, ())}
    for k in range(n):
        nxt = {}
        for p in level.values():
            downsets = [
                m
                for m in range(1 << p.n)
                if all(p.down[a] & ~m == 0 for a in bits_of(m))
            ]
            for dmask in downsets:
                newbit = 1 << p.n
                rows = tuple(
                    (p.up[a] | newbit) if dmask >> a & 1 else p.up[a] for a in range(p.n)
                ) + (newbit,)
                child = FinitePoset(p.n + 1, rows)
                nxt.setdefault(child.canonical_key(), child)
        level = nxt
    return set(level)


class TestAgainstNaiveGeneration:
    @pytest.mark.parametrize("n", range(6))
    def test_same_classes_as_global_dedupe(self, n):
        expected = naive_global_dedupe_posets(n)
        catalog = enumerate_posets(n, want_catalog=True).catalog
        assert {p.canonical_key() for p in catalog} == expected


# the (completable, bottom) rules of the poset, chainmail and lattice searches
RULES = {"posets": (False, False), "completable": (True, False), "lattices": (True, True)}


def search_nodes(rule: tuple, max_k: int) -> list:
    """Every node of the search on at most ``max_k`` elements, each with
    the canonicalization it carries, smaller nodes first."""
    return [node for k in range(max_k + 1) for node in enumeration._nodes(enumeration._ROOT, rule, k)]


def children_over_every_downset(k: int, up: tuple):
    """(down-set, up-rows, down-rows) of the child over each down-set."""
    down = transpose(k, up)
    newbit = 1 << k
    for dmask in downset_masks(k, down):
        up1 = tuple((up[a] | newbit) if dmask >> a & 1 else up[a] for a in range(k)) + (newbit,)
        yield dmask, up1, down + (dmask | newbit,)


def candidates(k: int, up: tuple, rule: tuple):
    """(up-rows, down-rows) of every child over every down-set of the
    parent that passes the rule's filters, before any acceptance test."""
    completable, bottom = rule
    for dmask, up1, down1 in children_over_every_downset(k, up):
        if bottom and k and not dmask:
            continue
        if completable and reduced_mail_scan(k + 1, up1, down1, allow_unbounded=True) is not None:
            continue
        yield up1, down1


def eager_accepted(k1: int, up1, down1):
    """McKay acceptance with every generator list built up front: a full
    canonicalization, whose list is rebuilt as the swaps of consecutive
    twins where the stable cells are twin groups, and the orbit of the
    deletion choice walked over that list."""
    result = canon.canonicalize(k1, up1, down1)
    cells = canon.stable_partition(k1, up1, down1)[0]
    gens = consecutive_twin_swaps(k1, cells) if twin_cells(up1, down1, cells) else result.generators
    pos = {e: i for i, e in enumerate(result.perm)}
    best = max((e for e in range(k1) if up1[e] == 1 << e), key=pos.__getitem__)
    if k1 - 1 not in canon._orbit(best, gens):
        return None
    return canon.CanonResult(result.key, result.perm, result.relabeled_up, gens)


@pytest.fixture(scope="module", params=list(RULES))
def rule_nodes(request):
    rule = RULES[request.param]
    return rule, search_nodes(rule, 6)


class TestCanonicalAugmentation:
    def test_accepted_matches_the_full_canonicalization(self, rule_nodes):
        rule, nodes = rule_nodes
        for up, _down, _result in nodes:
            k = len(up)
            for up1, down1 in candidates(k, up, rule):
                got = canon.accept(k + 1, up1, down1)
                want = oracle_accepted(k + 1, up1, down1)
                assert (got is None) == (want is None)
                # all four fields: an accepted child's generators serve its
                # own children
                if got is not None:
                    assert (got.key, got.perm, got.relabeled_up, got.generators) == \
                        (want.key, want.perm, want.relabeled_up, want.generators)

    @pytest.mark.parametrize("c4_maxes, c6_maxes, accepted", [
        ((5, 9), (6, 7, 8), False),
        ((5, 6), (7, 8, 9), True),
    ])
    def test_orbit_decides_inside_the_last_stable_cell(self, c4_maxes, c6_maxes, accepted):
        # minimal elements 0..4 and maximal ones 5..9, ordered as a 4-cycle
        # on 0, 1 and a 6-cycle on 2, 3, 4: refinement cannot tell the two
        # cycles apart, so the new element 9 passes the cell test in both,
        # and only the orbit test rejects it in one
        covers = [(m, top) for top in c4_maxes for m in (0, 1)]
        covers += [(m, top) for (a, b), top in zip([(2, 3), (3, 4), (4, 2)], c6_maxes) for m in (a, b)]
        p = FinitePoset.from_cover_pairs(10, covers)
        assert canon.stable_partition(10, p.up, p.down)[0] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        assert (canon.accept(10, p.up, p.down) is not None) == accepted
        assert (oracle_accepted(10, p.up, p.down) is not None) == accepted

    def test_one_child_per_class_and_every_class_of_the_seen_route(self, rule_nodes):
        # two accepted children over down-sets in different orbits of the
        # parent's automorphisms are never isomorphic, so no per-parent
        # dedup by key is needed
        rule, nodes = rule_nodes
        for up, down, parent in nodes:
            k = len(up)
            assert down == transpose(k, up)
            for g in parent.generators:
                assert all(sum(1 << g[b] for b in range(k) if up[a] >> b & 1) == up[g[a]]
                           for a in range(k))
            children = enumeration._children(up, down, parent, *rule)
            keys = [child.key for _up1, _down1, child in children]
            assert len(set(keys)) == len(keys)
            accepted = (oracle_accepted(k + 1, up1, down1) for up1, down1 in candidates(k, up, rule))
            assert set(keys) == {result.key for result in accepted if result is not None}

    def test_children_match_an_acceptance_with_eager_generators(self, rule_nodes, monkeypatch):
        # one-leaf children build their generators on first read; the
        # children, and the generators their own children are picked by,
        # are those of an acceptance that builds every list and walks
        rule, nodes = rule_nodes

        def children():
            return [[(up1, down1, child.key, child.perm, child.relabeled_up, child.generators)
                     for up1, down1, child in enumeration._children(up, down, parent, *rule)]
                    for up, down, parent in nodes]

        found = children()
        monkeypatch.setattr(canon, "accept", eager_accepted)
        assert found == children()

    def test_canon_work_of_the_chainmail_catalog_on_8_elements(self, monkeypatch):
        # one stable partition per child that passes the parent's filters,
        # one canonicalization through the public entry point per accepted
        # child, one twin test per partition and one more per refinement
        # round that splits a cell, and one relabeling per leaf a search
        # records and per one-leaf entry of the catalog
        counts = Counter()
        for name in ("stable_partition", "canonicalize", "_twin_cells", "_relabel"):
            def counting(*args, _real=getattr(canon, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(canon, name, counting)
        assert enumerate_connected_chainmails(8, want_catalog=True).count == 1842
        assert counts == {"stable_partition": 2407, "canonicalize": 2231, "_twin_cells": 3712, "_relabel": 2124}

    def test_count_only_runs_relabel_at_search_leaves_alone(self, monkeypatch):
        # a count reads no key and no canonical rows: no one-leaf result is
        # relabeled, and a search relabels its leaves once each
        callers = Counter()
        real = canon._relabel

        def counting(*args):
            callers[sys._getframe(1).f_code.co_name] += 1
            return real(*args)

        monkeypatch.setattr(canon, "_relabel", counting)
        assert enumerate_connected_chainmails(8).count == 1842
        assert list(callers) == ["_search"]


def kept_masks(k: int, up: tuple, down: tuple, rule: tuple) -> list:
    """The down-sets of the parent that pass the rule's filters and the
    degree test, ascending: the list ``_children`` picks one per orbit of."""
    completable, bottom = rule
    need = canon.degree_table(k, up, down)
    joins = pair_joins(up, down) if completable else []
    return [d for d in downset_masks(k, down)
            if (d or not (bottom and k)) and not need[d.bit_count()] & ~d and joins_inside(d, joins)]


class TestOrbitFirsts:
    def test_orbit_firsts_match_the_walked_orbits(self, rule_nodes):
        # one-leaf parents keep the masks the prefix rule allows, search
        # parents walk the orbits themselves; both must keep the first mask
        # of each orbit walked over the generators, of the full down-set
        # list and of the filtered one
        rule, nodes = rule_nodes
        one_leaf = 0
        for up, down, parent in nodes:
            k = len(up)
            one_leaf += twin_cells(up, down, canon.stable_partition(k, up, down)[0])
            for masks in (downset_masks(k, down), kept_masks(k, up, down, rule)):
                assert list(parent.orbit_firsts(masks)) == oracle_orbit_firsts(masks, parent.generators)
        assert 0 < one_leaf < len(nodes)

    def test_one_leaf_parents_keep_prefixes_of_their_twin_groups(self):
        # the antichain on 0, 1, 2 is one twin group: the down-sets that
        # meet it in a prefix, one per orbit
        parent = canon.canonicalize(3, (1, 2, 4), (1, 2, 4))
        assert parent.generators == consecutive_twin_swaps(3, [[0, 1, 2]])
        assert list(parent.orbit_firsts(list(range(8)))) == [0, 1, 3, 7]


class TestChildFilters:
    """The tests that `_children` applies to the down-set list from the
    parent alone, before any child is built."""

    def test_join_test_agrees_with_the_full_scan(self, rule_nodes):
        # the lemma needs a completable parent, which every node of the
        # completable searches is, and some nodes of the poset search are
        rule, nodes = rule_nodes
        for up, _down, _result in nodes:
            k = len(up)
            down = transpose(k, up)
            if reduced_mail_scan(k, up, down, allow_unbounded=True) is not None:
                assert not rule[0]
                continue
            joins = pair_joins(up, down)
            for dmask, up1, down1 in children_over_every_downset(k, up):
                assert joins_inside(dmask, joins) == \
                    (reduced_mail_scan(k + 1, up1, down1, allow_unbounded=True) is None)

    def test_degree_test_drops_only_rejected_children(self, rule_nodes):
        rule, nodes = rule_nodes
        dropped = 0
        for up, _down, _result in nodes:
            k = len(up)
            need = canon.degree_table(k, up, transpose(k, up))
            for dmask, up1, down1 in children_over_every_downset(k, up):
                if need[dmask.bit_count()] & ~dmask:
                    assert oracle_accepted(k + 1, up1, down1) is None
                    dropped += 1
        assert dropped


class TestWalk:
    @pytest.mark.parametrize("name", list(RULES))
    def test_each_level_is_that_level_of_the_pre_order_walk(self, name):
        # the frontier and each worker's classes are one level of the
        # search, in pre-order, which is the order the pool deals tasks in
        rule = RULES[name]

        def labels(nodes):
            return [(up, down, result.key) for up, down, result in nodes]

        def level(walk, k):
            return [node for node in labels(walk) if len(node[0]) == k]

        walk = list(oracle_nodes(enumeration._ROOT, rule, 6))
        for k in range(7):
            assert labels(enumeration._nodes(enumeration._ROOT, rule, k)) == level(walk, k)
        # a worker walks from a frontier node, and the walk below it is
        # the same
        for root in enumeration._nodes(enumeration._ROOT, rule, 2):
            assert labels(enumeration._nodes(root, rule, 6)) == level(oracle_nodes(root, rule, 6), 6)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        a = enumerate_connected_chainmails(6, want_catalog=True)
        b = enumerate_connected_chainmails(6, want_catalog=True)
        assert [p.up for p in a.catalog] == [p.up for p in b.catalog]

    def test_thread_counts_do_not_change_output(self):
        serial = enumerate_connected_chainmails(6, want_catalog=True, threads=1)
        for threads in (2, 4):
            parallel = enumerate_connected_chainmails(6, want_catalog=True, threads=threads)
            assert parallel.count == serial.count
            assert [p.up for p in parallel.catalog] == [p.up for p in serial.catalog]


def frontier_size(rule: tuple, target: int) -> int:
    """The number of search nodes on ``target - 3`` elements."""
    return sum(1 for _node in enumeration._nodes(enumeration._ROOT, rule, max(target - 3, 0)))


class TestWorkerPool:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Stands in for ``multiprocessing.Pool``: records, per pool, the
        size asked for, the number of tasks and their chunk size, and maps
        in this process, so no worker is forked.  ``os.cpu_count`` reads
        64, so the runner's own count plays no part."""
        calls = []

        @contextlib.contextmanager
        def stub_pool(processes):
            def pool_map(func, payloads, chunksize=None):
                calls.append((processes, len(payloads), chunksize))
                return list(map(func, payloads))

            yield types.SimpleNamespace(map=pool_map)

        monkeypatch.setattr(multiprocessing, "Pool", stub_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        return calls

    @pytest.mark.parametrize("threads", [2, 8, 100000])
    def test_pool_has_no_more_workers_than_chunks(self, pool_sizes, threads):
        # chainmails on 6 elements: completable posets on 5, searched from
        # the 2 classes on 2 elements, so 2 tasks
        serial = enumerate_connected_chainmails(6, want_catalog=True)
        result = enumerate_connected_chainmails(6, want_catalog=True, threads=threads)
        assert pool_sizes == [(2, 2, 1)]
        assert result.count == 62
        assert [p.up for p in result.catalog] == [p.up for p in serial.catalog]

    @pytest.mark.parametrize("threads", [2, 4])
    def test_one_task_per_frontier_node(self, pool_sizes, threads):
        # posets on 7 elements: the 16 classes on 4 elements, one task each,
        # dealt one at a time
        assert frontier_size((False, False), 7) == 16
        serial = enumerate_posets(7, want_catalog=True)
        result = enumerate_posets(7, want_catalog=True, threads=threads)
        assert pool_sizes == [(threads, 16, 1)]
        assert result.count == 2045
        assert [p.up for p in result.catalog] == [p.up for p in serial.catalog]

    @pytest.mark.parametrize("cpus,pools", [(3, [(3, 16, 1)]), (1, []), (None, [])], ids=["3", "1", "None"])
    def test_pool_is_capped_at_the_cpu_count(self, pool_sizes, monkeypatch, cpus, pools):
        # os.cpu_count() may return None; then one process is assumed
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert enumerate_posets(7, threads=100000).count == 2045
        assert pool_sizes == pools

    def test_one_thread_opens_no_pool(self, pool_sizes):
        assert enumerate_posets(6, threads=1).count == 318
        assert pool_sizes == []

    @pytest.mark.parametrize("threads,message", [
        pytest.param(0, "threads must be at least 1", id="0"),
        pytest.param(-1, "threads must be at least 1", id="-1"),
        pytest.param(1.5, "threads must be an integer, got 1.5", id="1.5"),
        pytest.param(True, "threads must be an integer, got True", id="True"),
    ])
    def test_threads_below_one_are_refused(self, pool_sizes, monkeypatch, threads, message):
        # non-integers too, before any search
        def search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(enumeration, "_enumerate", search)
        monkeypatch.setattr(enumeration, "_nodes", search)
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            enumerate_connected_chainmails(0, threads=threads)
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            enumerate_posets(5, threads=threads)
        assert pool_sizes == []

    @pytest.mark.skipif(os.environ.get("CHM_ACCEPT_DEEP") != "1",
                        reason="set CHM_ACCEPT_DEEP=1 for the posets on 8 elements")
    def test_deep_poset_catalog_is_the_same_with_two_workers(self, monkeypatch):
        # a real pool of two processes, on any runner, against one process
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        digests = []
        for threads in (1, 2):
            catalog = enumerate_posets(8, want_catalog=True, threads=threads).catalog
            lines = "".join(p.to_json_line() + "\n" for p in catalog)
            digests.append((len(catalog), hashlib.sha256(lines.encode()).hexdigest()))
        assert digests[0] == digests[1] == (16999, POSETS8_CATALOG_SHA256)


@pytest.fixture(scope="module")
def lattices():
    return enumerate_complete_lattices(9)


class TestLatticeCorpus:
    def test_lattice_counts_by_size(self, lattices):
        assert Counter(p.n for p in lattices) == LATTICE_COUNTS_BY_SIZE

    def test_distributive_counts_by_size(self, lattices):
        distributive = Counter(p.n for p in lattices if 2 <= p.n <= 8 and p.is_distributive())
        assert distributive == DISTRIBUTIVE_COUNTS_BY_SIZE

    def test_sizes_past_the_oracle_are_canonical_lattices(self, lattices):
        for p in lattices:
            if p.n > 7:
                assert p.is_complete_lattice()
                assert p == p.canonical_form()

    def test_size_five_matches_filtering(self, poset_corpus):
        filtered = [p for p in poset_corpus[5] if p.is_complete_lattice()]
        assert len(filtered) == LATTICE_COUNTS_BY_SIZE[5]

    def test_same_list_as_filtering_all_posets(self, lattices):
        assert [p for p in lattices if p.n <= 7] == lattices_by_filtering_all_posets(7)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chainmails_with_a_bottom_are_the_lattices(self, n, lattices):
        catalog = enumerate_connected_chainmails(n, want_catalog=True).catalog
        assert [p for p in catalog if p.bottom() is not None] == [p for p in lattices if p.n == n]

    @pytest.mark.parametrize("n", range(10))
    def test_lattice_kind_counts(self, n):
        # A006966, with the empty poset as the one lattice on 0 elements
        assert enumeration.enumerate_kind("lattices", n).count == {0: 1, **LATTICE_COUNTS_BY_SIZE}[n]

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_lattice_kind_catalog_is_one_size_of_the_list(self, n, lattices):
        catalog = enumeration.enumerate_kind("lattices", n, want_catalog=True, threads=2).catalog
        assert list(catalog) == [p for p in lattices if p.n == n]

    @pytest.mark.parametrize("max_size", [0, -1])
    def test_no_sizes_give_no_lattices(self, max_size):
        assert enumerate_complete_lattices(max_size) == []

    def test_guard_fires_before_any_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(enumeration, "_enumerate", search)
        monkeypatch.setattr(enumeration, "_nodes", search)
        for call in (lambda: enumerate_complete_lattices(10), lambda: enumeration.enumerate_kind("lattices", 10)):
            with pytest.raises(GuardExceeded, match="^lattice enumeration capped at n=9$"):
                call()
        # sizes that are not integers are refused, not coerced
        for call, message in [
            (lambda: enumerate_complete_lattices(3.5), "n must be an integer, got 3.5"),
            (lambda: enumerate_complete_lattices(True), "n must be an integer, got True"),
            (lambda: enumerate_posets(3.5), "n must be an integer, got 3.5"),
            (lambda: enumerate_posets(True), "n must be an integer, got True"),
            (lambda: enumerate_connected_chainmails(2.0), "n must be an integer, got 2.0"),
            (lambda: enumerate_connected_chainmails(False), "n must be an integer, got False"),
            (lambda: enumeration.enumerate_kind("graphs", 3), "no enumeration of kind 'graphs'"),
        ]:
            with pytest.raises(PreconditionError, match=f"^{message}$"):
                call()

    @pytest.mark.skipif(os.environ.get("CHM_ACCEPT_DEEP") != "1",
                        reason="set CHM_ACCEPT_DEEP=1 for lattice sizes 10 and 11")
    @pytest.mark.parametrize("n,expected", sorted(DEEP_LATTICE_COUNTS.items()))
    def test_deep_lattice_counts(self, n, expected):
        # the lattices on n elements are the completable posets with a bottom
        # on n - 1 elements, counted here without the public size guard
        count, entries = enumeration._enumerate((True, True), n - 1, False, 2)
        assert (count, entries) == (expected, [])


SPAWN_SCRIPT = """
import json, multiprocessing
from chainmail.enumeration import enumerate_posets
if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    result = enumerate_posets(6, want_catalog=True, threads=2)
    print(json.dumps([p.up for p in result.catalog]))
"""


def test_pool_runs_under_spawn():
    src = os.path.dirname(os.path.dirname(enumeration.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SPAWN_SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    serial = enumerate_posets(6, want_catalog=True).catalog
    assert json.loads(proc.stdout) == [list(p.up) for p in serial]


class TestPairCorpus:
    def test_size_zero_yields_nothing(self):
        assert list(enumerate_connectivity_pairs(0)) == []

    def test_size_one(self):
        pairs = [p for p in enumerate_connectivity_pairs(1)]
        assert len(pairs) == 2
        assert {frozenset(p.connected) for p in pairs} == {frozenset(), frozenset({0})}

    def test_size_two(self):
        pairs = [p for p in enumerate_connectivity_pairs(2) if p.lattice.n == 2]
        assert len(pairs) == 4

    def test_total_count(self):
        total = sum(1 for _ in enumerate_connectivity_pairs(6))
        expected = sum(count * (1 << size) for size, count in LATTICE_COUNTS_BY_SIZE.items()
                       if size <= 6)
        assert total == expected

    def test_stream_is_deterministic(self):
        first = [(p.lattice.up, tuple(sorted(p.connected))) for p in enumerate_connectivity_pairs(4)]
        second = [(p.lattice.up, tuple(sorted(p.connected))) for p in enumerate_connectivity_pairs(4)]
        assert first == second
