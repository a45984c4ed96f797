"""Shared corpus fixtures and independent oracles.

The oracles here recompute predicates from their definitions by direct
subset scans, so the fast bitmask implementations are always checked
against something that cannot share their bugs.
"""

from __future__ import annotations

import pytest

from chainmail import canon, connectivity, enumeration
from chainmail.exterior import tmd_set_masks
from chainmail.poset import FinitePoset, bits_of, mask_of, set_of, tmd_masks
from chainmail.enumeration import enumerate_posets


def subsets(n):
    for mask in range(1 << n):
        yield [i for i in range(n) if mask >> i & 1]


def oracle_upper_bounds(p: FinitePoset, members) -> set:
    out = set()
    for u in range(p.n):
        if all(p.leq(x, u) for x in members):
            out.add(u)
    return out


def oracle_lower_bounds(p: FinitePoset, members) -> set:
    out = set()
    for u in range(p.n):
        if all(p.leq(u, x) for x in members):
            out.add(u)
    return out


def oracle_join(p: FinitePoset, members):
    ubs = oracle_upper_bounds(p, members)
    least = [u for u in ubs if all(p.leq(u, v) for v in ubs)]
    return least[0] if least else None


def oracle_meet(p: FinitePoset, members):
    lbs = oracle_lower_bounds(p, members)
    greatest = [u for u in lbs if all(p.leq(v, u) for v in lbs)]
    return greatest[0] if greatest else None


def oracle_join_mask(n: int, rows, xmask: int):
    """Least common upper bound of the members of ``xmask`` under the
    up-rows ``rows``, or None, by a scan of the upper bounds for one whose
    row holds them all; under the down-rows, the greatest lower bound."""
    ub = (1 << n) - 1
    for x in bits_of(xmask):
        ub &= rows[x]
    for u in bits_of(ub):
        if ub & ~rows[u] == 0:
            return u
    return None


def oracle_is_mail(p: FinitePoset, members) -> bool:
    return bool(members) and bool(oracle_lower_bounds(p, members))


def oracle_mail_graph_components(p: FinitePoset, members) -> list:
    """Components of the two-element-mail graph by breadth-first search."""
    members = sorted(members)
    seen = set()
    comps = []
    for start in members:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in members:
                if y not in comp and oracle_is_mail(p, [x, y]):
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def oracle_is_mail_connected(p: FinitePoset, members) -> bool:
    return bool(members) and len(oracle_mail_graph_components(p, members)) == 1


def oracle_is_chainmail_all_mails(p: FinitePoset) -> bool:
    for members in subsets(p.n):
        if oracle_is_mail(p, members) and oracle_join(p, members) is None:
            return False
    return True


def oracle_every_mail_connected_set_has_join(p: FinitePoset) -> bool:
    for members in subsets(p.n):
        if oracle_is_mail_connected(p, members) and oracle_join(p, members) is None:
            return False
    return True


def oracle_is_order_connected(p: FinitePoset, members) -> bool:
    members = set(members)
    if not members:
        return False
    start = min(members)
    comp = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for y in members:
            if y not in comp and (p.leq(x, y) or p.leq(y, x)):
                comp.add(y)
                frontier.append(y)
    return comp == members


def oracle_every_connected_set_has_join(p: FinitePoset) -> bool:
    for members in subsets(p.n):
        if oracle_is_order_connected(p, members) and oracle_join(p, members) is None:
            return False
    return True


def oracle_is_complete_lattice(p: FinitePoset) -> bool:
    """A bottom and a join for every pair, each join found by intersecting
    up-rows and scanning for the least upper bound."""
    if p.n == 0 or oracle_join(p, []) is None:
        return False
    return all(oracle_join_mask(p.n, p.up, (1 << a) | (1 << b)) is not None
               for a in range(p.n) for b in range(a + 1, p.n))


def oracle_every_upset_complete(p: FinitePoset) -> bool:
    for x in range(p.n):
        upset = sorted(p.up_set(x))
        sub = FinitePoset.induced(p, upset)
        if not sub.is_complete_lattice():
            return False
    return True


def lex_subsets(elems):
    """Every non-empty subset of the sorted list ``elems`` as a tuple, in
    lexicographic order (a prefix before its extensions)."""
    def extend(prefix, start):
        for i in range(start, len(elems)):
            t = prefix + (elems[i],)
            yield t
            yield from extend(t, i + 1)
    return extend((), 0)


def oracle_first_mail(p: FinitePoset, members: int, lows: int, bad):
    """The first antichain of ``members`` (lexicographic order) with at
    least two elements, a common lower bound in ``lows`` and
    ``bad(upper-bound mask)``, as a bitmask; None when there is none.
    Scans every subset."""
    for s in lex_subsets([x for x in range(p.n) if members >> x & 1]):
        if len(s) < 2 or any(p.leq(a, b) for a in s for b in s if a != b):
            continue
        lb = ub = p.full_mask
        for x in s:
            lb &= p.down[x]
            ub &= p.up[x]
        if lb & lows and bad(ub):
            return sum(1 << x for x in s)
    return None


def oracle_least(p: FinitePoset, mask: int):
    """The least element of the set ``mask``, or None."""
    for u in range(p.n):
        if mask >> u & 1 and all(p.leq(u, v) for v in range(p.n) if mask >> v & 1):
            return u
    return None


def oracle_inclusion_rows(masks, ceilings) -> tuple:
    """Row i: the j such that ``masks[i]`` lies inside ``ceilings[j]``, by
    testing every mask against every ceiling."""
    rows = []
    for m in masks:
        row = 0
        for j, c in enumerate(ceilings):
            if not m & ~c:
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def oracle_closure(n: int, pairs) -> tuple:
    """Up-rows of the reflexive-transitive closure of the pairs (a, b),
    by sweeping every row until no row grows."""
    rows = [1 << a for a in range(n)]
    for a, b in pairs:
        rows[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for a in range(n):
            grown = rows[a]
            for b in bits_of(rows[a]):
                grown |= rows[b]
            if grown != rows[a]:
                rows[a] = grown
                changed = True
    return tuple(rows)


def oracle_covers(p: FinitePoset) -> tuple:
    """(a, b) pairs where b covers a, by testing every b above a for an
    element strictly between; the loop ``FinitePoset.covers`` ran before
    it took the minimal elements of each strict up-set."""
    out = []
    for a in range(p.n):
        for b in bits_of(p.up[a] & ~(1 << a)):
            if not p.up[a] & p.down[b] & ~(1 << a) & ~(1 << b):
                out.append((a, b))
    return tuple(out)


def oracle_forest_covers(p: FinitePoset) -> bool:
    """Forest formulation: no element has two upper covers."""
    cover_up = {a: [] for a in range(p.n)}
    for a, b in p.covers:
        cover_up[a].append(b)
    return all(len(v) <= 1 for v in cover_up.values())


def oracle_forest_upsets(p: FinitePoset) -> bool:
    """Forest formulation: every up-set is a chain, by testing each pair
    of elements above each x."""
    for x in range(p.n):
        ups = list(bits_of(p.up[x]))
        for i in range(len(ups)):
            for j in range(i + 1, len(ups)):
                a, b = ups[i], ups[j]
                if not (p.leq(a, b) or p.leq(b, a)):
                    return False
    return True


def oracle_forest_trees(p: FinitePoset) -> bool:
    """Forest formulation: each order component has one maximal element
    and a tree-shaped cover diagram (one cover edge fewer than elements)."""
    for comp in p.order_connected_components():
        edges = [e for e in p.covers if e[0] in comp]
        maxima = [a for a in comp if p.up[a] == 1 << a]
        if len(edges) != len(comp) - 1 or len(maxima) != 1:
            return False
    return True


def oracle_is_absolute(lat: FinitePoset, fam: tuple, joins: tuple, doms: tuple) -> bool:
    """Whether the join map of D(C), given as (masks, joins, doms), is an
    order isomorphism onto L, by testing every pair of sets: S_i <= S_j
    componentwise exactly when join(S_i) <= join(S_j)."""
    if len(fam) != lat.n or len(set(joins)) != lat.n:
        return False
    for i in range(len(fam)):
        for j in range(len(fam)):
            if (fam[i] & ~doms[j] == 0) != bool(lat.up[joins[i]] >> joins[j] & 1):
                return False
    return True


def oracle_local_joins(p: FinitePoset, members) -> list:
    """Local joins by definition: upper bounds x such that every upper
    bound u sharing an upper bound with x lies above x, by testing every
    pair (x, u)."""
    xmask = mask_of(members)
    out = []
    for x in range(p.n):
        if xmask & ~p.down[x]:
            continue
        ok = True
        for u in range(p.n):
            if xmask & ~p.down[u]:
                continue
            if p.up[x] & p.up[u] and not p.up[x] >> u & 1:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def oracle_hypergraph_connected(h, vmask: int) -> bool:
    """Chain-cover definition of a connected vertex set: non-empty, and one
    chain-component of the hyperedges inside the set (edges linked when
    they intersect, joined by union-find) has the set as its union."""
    if not vmask:
        return False
    inside = [mask_of(e) for e in h.hyperedges if mask_of(e) & ~vmask == 0]
    parent = list(range(len(inside)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(inside)):
        for j in range(i + 1, len(inside)):
            if inside[i] & inside[j]:
                parent[find(i)] = find(j)
    unions = {}
    for i, e in enumerate(inside):
        unions[find(i)] = unions.get(find(i), 0) | e
    return vmask in unions.values()


def oracle_dc_family(pair) -> tuple:
    """D(C) by the induced route: the TMD sets of the subposet on C, mapped
    back to the lattice's indices, in order."""
    elems = sorted(pair.connected)
    induced = FinitePoset.induced(pair.lattice, elems)
    return tuple(mask_of(elems[i] for i in bits_of(m)) for m in tmd_set_masks(induced))


def dc_sets(pair) -> list:
    """D(C) as frozensets of ambient elements."""
    return [set_of(m) for m in connectivity._dc_tables(pair)[0]]


def oracle_right_adjoint_table(lat: FinitePoset, fam: tuple, joins: tuple, doms: tuple):
    """The right adjoint of the join map D(C) -> L, for D(C) given as
    (masks, joins, doms), by keeping the maximal sets with join below each
    x: the table of the greatest one per x, or None when some x has more
    than one maximal set."""
    table = []
    for x in range(lat.n):
        maxima: list = []
        for i, j in enumerate(joins):
            if not lat.down[x] >> j & 1:
                continue
            if any(fam[i] & ~doms[t] == 0 for t in maxima):
                continue
            maxima = [t for t in maxima if fam[t] & ~doms[i] != 0]
            maxima.append(i)
        if len(maxima) != 1:
            return None
        table.append(fam[maxima[0]])
    return table


def oracle_l_plus_families(lat: FinitePoset) -> list:
    """(members, join) for every subset of L+ whose members pairwise meet
    in the bottom, by a scan of every subset."""
    bot = lat.bottom()
    return [
        (members, oracle_join(lat, members)) for members in subsets(lat.n)
        if bot not in members
        and all(oracle_meet(lat, [x, y]) == bot for x in members for y in members if x != y)
    ]


def oracle_absolutely_connected(lat: FinitePoset) -> frozenset:
    """E4: a below the join of an L+ family is below one of its members."""
    families = oracle_l_plus_families(lat)
    return frozenset(
        a for a in range(lat.n)
        if all(any(lat.leq(a, x) for x in members) for members, j in families if lat.leq(a, j))
    )


def l_plus_family(lat: FinitePoset) -> list:
    """(mask, join) for every TMD subset of L+, listed whole by
    ``tmd_masks``, with no pruning: what the E3 and E4 oracles scan."""
    l_plus = lat.full_mask & ~(1 << lat.bottom())
    masks = tmd_masks(lat, l_plus)[0]
    return [(m, oracle_join_mask(lat.n, lat.up, m)) for m in masks]


def oracle_e3_elements(lat: FinitePoset) -> frozenset:
    """E3 by a scan of the whole L+ family: a fails when a family without
    a has join a."""
    fails = 0
    for m, j in l_plus_family(lat):
        if not m >> j & 1:
            fails |= 1 << j
    return frozenset(a for a in range(lat.n) if not fails >> a & 1)


def oracle_e4_elements(lat: FinitePoset) -> frozenset:
    """E4 by testing every element against every set of the L+ family."""
    family = l_plus_family(lat)
    return frozenset(
        a for a in range(lat.n)
        if not any(lat.up[a] >> j & 1 and not m & lat.up[a] for m, j in family)
    )


def oracle_e1(lat: FinitePoset, a: int) -> bool:
    """E1 by a double loop over every pair x <= y (indices) whose meet is
    the bottom: a != 0, and a below x v y is below x or y."""
    if a == lat.bottom():
        return False
    n = lat.n
    botbit = 1 << lat.bottom()
    for x in range(n):
        for y in range(x, n):
            if lat.down[x] & lat.down[y] != botbit:
                continue
            j = oracle_join_mask(n, lat.up, (1 << x) | (1 << y))
            if lat.up[a] >> j & 1 and not lat.up[a] & ((1 << x) | (1 << y)):
                return False
    return True


def oracle_e2(lat: FinitePoset, a: int) -> bool:
    """E2 by the same double loop: a != 0, and a = x v y with x ^ y = 0
    forces x = a or y = a."""
    if a == lat.bottom():
        return False
    n = lat.n
    botbit = 1 << lat.bottom()
    for x in range(n):
        for y in range(x, n):
            if lat.down[x] & lat.down[y] != botbit:
                continue
            if oracle_join_mask(n, lat.up, (1 << x) | (1 << y)) == a and x != a and y != a:
                return False
    return True


def oracle_sigma_members(pair) -> list:
    """The join closure of C by a fixpoint: start from the bottom and C,
    and add pairwise joins until nothing changes."""
    lat = pair.lattice
    closure = {lat.bottom()} | set(pair.connected)
    changed = True
    while changed:
        changed = False
        current = sorted(closure)
        for a in current:
            for b in current:
                j = oracle_join_mask(lat.n, lat.up, (1 << a) | (1 << b))
                if j not in closure:
                    closure.add(j)
                    changed = True
    return sorted(closure)


def brute_force_poset_count(n: int) -> int:
    """Count posets up to isomorphism by filtering every reflexive relation
    (2^(n^2-n) of them; n <= 4 is practical)."""
    if n == 0:
        return 1
    keys = set()
    offdiag = [(a, b) for a in range(n) for b in range(n) if a != b]
    for pick in range(1 << len(offdiag)):
        rows = [1 << a for a in range(n)]
        for i, (a, b) in enumerate(offdiag):
            if pick >> i & 1:
                rows[a] |= 1 << b
        p = FinitePoset(n, tuple(rows))
        if p.validate() is None:
            keys.add(p.canonical_key())
    return len(keys)


def lattices_by_filtering_all_posets(max_size: int) -> list:
    """Complete lattices with 1..max_size elements, by filtering the catalog
    of every poset of each size; the route the enumerator took before it
    searched for lattices directly."""
    return [p for size in range(1, max_size + 1)
            for p in enumerate_posets(size, want_catalog=True).catalog
            if p.is_complete_lattice()]


def oracle_refine(n: int, up, down, cells: list) -> list:
    """Equitable refinement that counts every member of every cell against
    every cell of the partition, each round; the route ``canon._refine``
    took before it counted against the fresh cells only."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple(((down[v] & m).bit_count(), (up[v] & m).bit_count()) for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                new_cells.extend(groups[sig] for sig in sorted(groups))
        cells = new_cells
        if not changed:
            return cells


def oracle_stable_partition(n: int, up, down) -> list:
    """Round one, the elements grouped by ``(|down|, |up|)`` in that order,
    then ``canon._refine`` from it, always; the route
    ``canon.stable_partition`` took before it returned round one as it is
    when its cells are twin groups."""
    groups = {}
    for v in range(n):
        groups.setdefault((down[v].bit_count(), up[v].bit_count()), []).append(v)
    cells = [groups[sig] for sig in sorted(groups)]
    return canon._refine(n, up, down, cells, cells[:-1])[0]


def oracle_orbit_firsts(masks: list, gens) -> list:
    """The first of ``masks`` in each orbit of the group generated by
    ``gens``, by walking each orbit over the generators' images of the
    masks; the route the enumerator took for every parent before one-leaf
    results read their orbits off the twin groups."""
    moves = [{d: sum(1 << g[v] for v in bits_of(d)) for d in masks} for g in gens]
    covered: set = set()
    firsts = []
    for d in masks:
        if d not in covered:
            covered |= canon._orbit(d, moves)
            firsts.append(d)
    return firsts


def oracle_relabel(n: int, up, perm) -> tuple:
    """(rows, encoding) of the copy labeled by ``perm``, bit by bit: row i
    holds bit j when perm[i] <= perm[j], and sits at bit i * n."""
    rows = tuple(sum(1 << j for j in range(n) if up[perm[i]] >> perm[j] & 1) for i in range(n))
    return rows, sum(row << (i * n) for i, row in enumerate(rows))


def oracle_canonical(n: int, up, down) -> tuple:
    """(key, perm, relabeled_up) by walking every leaf of the search tree of
    ``canon.canonicalize`` with no pruning: refine the unit partition,
    individualize each member of the first non-singleton cell in turn, and
    keep the first leaf with the least encoding."""
    def leaves(cells):
        idx = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if idx is None:
            yield tuple(c[0] for c in cells)
            return
        cell = cells[idx]
        for v in cell:
            rest = [w for w in cell if w != v]
            yield from leaves(oracle_refine(n, up, down, cells[:idx] + [[v], rest] + cells[idx + 1:]))

    best = None
    for perm in leaves(oracle_refine(n, up, down, [list(range(n))])):
        rows, enc = oracle_relabel(n, up, perm)
        if best is None or enc < best[0]:
            best = (enc, perm, rows)
    enc, perm, rows = best
    return n.to_bytes(2, "big") + enc.to_bytes((n * n + 7) // 8, "big"), perm, rows


def oracle_accepted(k1: int, up1, down1):
    """McKay acceptance by a full canonicalization of every candidate: the
    canonicalization when k1-1 lies in the orbit, walked over the
    generators, of the maximal element with the largest canonical
    position, else None."""
    result = canon.canonicalize(k1, up1, down1)
    pos = {e: i for i, e in enumerate(result.perm)}
    best = max((e for e in range(k1) if up1[e] == 1 << e), key=pos.__getitem__)
    return result if k1 - 1 in canon._orbit(best, result.generators) else None


def oracle_nodes(node, rule: tuple, depth: int):
    """Every search node from ``node`` down to ``depth`` elements, in
    pre-order: the node, then the walks of its children.  The one-level
    walk ``enumeration._nodes`` must yield the nodes on one size in this
    order, since it is the order the pool deals its tasks in."""
    yield node
    up, down, result = node
    if len(up) < depth:
        for child in enumeration._children(up, down, result, *rule):
            yield from oracle_nodes(child, rule, depth)


def twin_cells(up, down, cells) -> bool:
    """Whether every cell is one group of twins (equal strict up- and
    down-sets): the partitions canon.canonicalize labels without a search."""
    return all(len({(up[v] ^ 1 << v, down[v] ^ 1 << v) for v in cell}) == 1 for cell in cells)


def consecutive_twin_swaps(n: int, cells) -> list:
    """The swaps of consecutive members of each cell, in order."""
    swaps = []
    for cell in cells:
        for a, b in zip(cell, cell[1:]):
            g = list(range(n))
            g[a], g[b] = b, a
            swaps.append(tuple(g))
    return swaps


def mk(k):
    """M_k: a bottom, k atoms and a top."""
    n = k + 2
    covers = [(0, a) for a in range(1, k + 1)] + [(a, n - 1) for a in range(1, k + 1)]
    return FinitePoset.from_cover_pairs(n, covers)


def relabel(p: FinitePoset, perm) -> FinitePoset:
    rows = [0] * p.n
    for a in range(p.n):
        for b in range(p.n):
            if p.leq(a, b):
                rows[perm[a]] |= 1 << perm[b]
    return FinitePoset(p.n, tuple(rows))


@pytest.fixture(scope="session")
def poset_corpus():
    """Every poset up to isomorphism, keyed by size, for sizes 0..6."""
    return {n: list(enumerate_posets(n, want_catalog=True).catalog) for n in range(7)}


@pytest.fixture(scope="session")
def small_poset_corpus(poset_corpus):
    """Sizes 0..5, for the heavier exhaustive sweeps."""
    return {n: poset_corpus[n] for n in range(6)}
