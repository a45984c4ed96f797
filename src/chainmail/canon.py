"""Canonical labeling of finite posets.

Partition refinement (on per-cell counts of strict predecessors and
successors, iterated to a fixpoint) followed by backtracking over the
coarsest stable partition.  The canonical form is the lexicographically
least relation encoding over all labelings compatible with the stable
partition; automorphisms discovered as equal-encoding leaves prune the
search and yield the orbit partition needed by the enumerator.

Correctness rests on two standard facts: the refined partition is an
isomorphism invariant, and pruning a branch by a known automorphism only
removes encodings that are produced elsewhere in the tree.  Every leaf
whose encoding repeats an earlier one adds an automorphism, and together
with those used for pruning they generate the whole automorphism group
(McKay, "Practical graph isomorphism", Congr. Numer. 30, 1981), which the
enumerator uses twice: for orbits of elements and for orbits of down-sets.

Twins.  Two elements with the same strict up-set and the same strict
down-set are twins, and swapping them keeps the order, so it is an
automorphism; twins share a cell of the first stable partition.  The
search starts with the swaps of consecutive twins as generators, so
sibling pruning follows one twin per level instead of meeting each swap
again at a leaf.  This changes no output.  A branch v is pruned only
when an automorphism h fixing the path maps an earlier sibling u to v;
refinement commutes with h, so h maps the tree under u onto the tree
under v, leaf for leaf with equal encodings, and each encoding under v
occurs earlier under u.  So the first leaf, in the order of the unpruned
tree, with the least encoding is never pruned: that leaf, ``perm``, the
key and the canonical rows do not depend on which automorphisms are known.
Neither does the group.  Every pruned leaf is the image, under a product
of generators, of a visited leaf, so every g in Aut(P) maps the first
leaf L to a leaf that a product h of generators maps to a visited leaf
with L's encoding: L itself, or the image of L under the generator that
leaf added.  An automorphism that maps a leaf to itself is the identity,
so g is a product of generators.

One leaf.  When every cell of the first stable partition with two or more
elements is one group of twins, the search reaches one leaf, the cells
flattened in list order, and ``canonicalize`` reads it off without
searching.  Individualizing a member v of a twin group splits nothing:
its twins are incomparable to v (v < w would put w in v's own strict
up-set), and the members of any other twin group all compare with v
alike, so the partition stays equitable.  So each level individualizes
the first member of what is left of a twin group, and every later
sibling is pruned, since the swaps of consecutive twins in that rest fix
the path and put the sibling in the orbit of the first.  The one leaf
adds no generator, and the key, ``perm``, the canonical rows and the
generator list are those the search returns.

Bound.  Refinement and individualization only split a cell into
fragments that take its place in the list, so every leaf, the canonical
labeling among them, places each element at a position inside the span
of its cell of the first stable partition.  Automorphisms keep that
partition, so each orbit lies inside one of its cells.

Fresh cells.  A refinement round counts only against the cells the
previous round made, less the last fragment of each split cell; see
:func:`_refine` for why that gives the same ordered partition as counting
against every cell.  Round one, against the unit cell, groups the
elements by ``(|down|, |up|)`` (see :func:`stable_partition`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass
class CanonResult:
    key: bytes
    perm: tuple            # perm[i] = original element placed at canonical position i
    relabeled_up: tuple    # up-rows of the canonical copy
    generators: list = field(repr=False)  # automorphisms met by the search

    def orbit(self, v: int) -> set:
        """The automorphism orbit of v."""
        return _orbit(v, self.generators)


def _orbit(v: int, gens) -> set:
    """The orbit of v under the group generated by ``gens``."""
    seen = {v}
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def stable_partition(n: int, up: Sequence[int], down: Sequence[int]) -> list:
    """The equitable refinement of the unit partition: the first stable
    partition, root of the search.

    Round one is formed here.  Counted against the unit cell, the one
    cell there is, each element's signature is its ``(|down|, |up|)``, so
    the round groups the elements by that pair, packed into one int as in
    :func:`_refine`, and orders the groups by it.  Every fragment but the
    last is fresh: that is the start state of the "Fresh cells" invariant,
    since the partition is equitable against the unit cell, whose last
    fragment is the one cell not fresh.  One fragment is already
    equitable, and then ``_refine`` is not called.
    """
    width = (n + 1).bit_length()
    groups: dict = {}
    for v in range(n):
        groups.setdefault((down[v].bit_count() << width) | up[v].bit_count(), []).append(v)
    cells = [groups[sig] for sig in sorted(groups)]
    if len(cells) < 2:
        return cells
    return _refine(n, up, down, cells, cells[:-1])


def _refine(n: int, up: Sequence[int], down: Sequence[int], cells: list, fresh: list) -> list:
    """Equitable refinement of an ordered partition; split fragments are
    ordered by signature, which keeps the result isomorphism-invariant.

    ``fresh`` lists, in list order, the cells against which ``cells`` may
    not be equitable yet: the fragments of round one but the last (see
    :func:`stable_partition`), or ``[v]`` for a search branch that split
    ``v`` off the front of a cell.  Each round splits every cell by the
    counts of strict predecessors and successors of its members in the
    fresh cells alone, and every fragment it makes but the last of each
    split cell is the next round's fresh cell.  This gives the same
    ordered partition as counting against every cell, round by round.

    Invariant: against each cell X not in ``fresh``, the partition is
    equitable, or X is the last fragment of a cell C against which it is
    equitable, and the other fragments of C are fresh.  A cell counted
    against in a round is equitable afterwards; so is a last fragment,
    since its counts are the constant of C minus the counts against the
    other fragments, which the round made constant; and refinement keeps
    whatever was equitable.  So the invariant holds again, and with no
    fresh cell left no cell splits, and the partition is equitable.  A
    search branch starts in it: the partition was equitable before ``v``
    was split off, so the rest of its cell is such a last fragment.  Now
    take two members of one cell whose counts against the fresh cells
    agree.  Their counts against a cell of the first kind are constant,
    and against a last fragment they follow from the fragments before it,
    so counting against every cell gives the same groups.  The first
    position where two full signatures differ is a fresh cell, since a
    last fragment's counts agree once those of the fragments before it
    do; so the groups also sort as they do here.  Each signature is one
    int with a field of ``(n + 1).bit_length()`` bits per count, the first
    count highest, so int order is the tuple's lex order.
    """
    width = (n + 1).bit_length()
    while fresh:
        masks = []
        for cell in fresh:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        fresh = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                dv = down[v]
                uv = up[v]
                sig = 0
                for m in masks:
                    sig = (((sig << width) | (dv & m).bit_count()) << width) | (uv & m).bit_count()
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                fragments = [groups[sig] for sig in sorted(groups)]
                new_cells += fragments
                fresh += fragments[:-1]
        cells = new_cells
    return cells


def _relabel(n: int, up: Sequence[int], perm: tuple):
    """Up-rows of the copy labeled by ``perm``, and their encoding: row i
    holds bit j when perm[i] <= perm[j], and sits at bit i * n."""
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    rows = []
    enc = 0
    shift = 0
    for v in perm:
        row = 0
        rest = up[v]
        while rest:
            low = rest & -rest
            row |= 1 << pos[low.bit_length() - 1]
            rest ^= low
        rows.append(row)
        enc |= row << shift
        shift += n
    return rows, enc


def _search(n: int, up, down, cells: list, path: tuple, generators: list, leaves: dict) -> None:
    """Individualize the first cell of two or more elements, member by
    member, below ``path``; ``leaves`` maps each encoding to its first leaf,
    and a leaf that repeats an encoding adds an automorphism."""
    idx = next((i for i, c in enumerate(cells) if len(c) > 1), None)
    if idx is None:
        perm = tuple(c[0] for c in cells)
        enc = _relabel(n, up, perm)[1]
        prev = leaves.get(enc)
        if prev is None:
            leaves[enc] = perm
        else:
            g = [0] * n
            for i in range(n):
                g[prev[i]] = perm[i]
            generators.append(tuple(g))
        return
    cell = cells[idx]
    tried: list = []
    fixing: list = []
    scanned = 0
    for v in cell:
        # skip candidates in the orbit of an already-explored sibling,
        # under automorphisms that fix the individualized path; the
        # generators found since the last sibling are the only new ones
        fixing += [g for g in generators[scanned:] if all(g[e] == e for e in path)]
        scanned = len(generators)
        if fixing and tried and _orbit(v, fixing) & set(tried):
            tried.append(v)
            continue
        tried.append(v)
        rest = [w for w in cell if w != v]
        new_cells = cells[:idx] + [[v], rest] + cells[idx + 1:]
        refined = _refine(n, up, down, new_cells, [[v]])
        _search(n, up, down, refined, path + (v,), generators, leaves)


def canonicalize(n: int, up: Sequence[int], down: Sequence[int], *,
                 cells: Optional[list] = None) -> CanonResult:
    """Canonical key, labeling and automorphism generators of a poset.

    ``cells`` is ``stable_partition(n, up, down)`` when the caller has
    already computed it; the search starts from it rather than refining
    the unit partition again.

    The canonical labeling is the first leaf with the least encoding; n = 0
    has one leaf, the empty labeling, encoded as 0.  ``generators`` opens
    with the swaps of consecutive twins in each cell, and when those cells
    with two or more elements are all twin groups there is no search, and
    the one leaf is the labeling (see the module docstring).
    """
    if cells is None:
        cells = stable_partition(n, up, down)
    generators: list = []
    twins_only = True
    for cell in cells:
        twins: dict = {}
        for v in cell if len(cell) > 1 else ():
            twins.setdefault((up[v] ^ 1 << v, down[v] ^ 1 << v), []).append(v)
        twins_only = twins_only and len(twins) < 2
        for group in twins.values():
            for a, b in zip(group, group[1:]):
                g = list(range(n))
                g[a], g[b] = b, a
                generators.append(tuple(g))
    if twins_only:
        # the search's one leaf: the cells in list order (see "One leaf" in
        # the module docstring)
        perm = tuple(v for cell in cells for v in cell)
    else:
        leaves: dict = {}
        _search(n, up, down, cells, (), generators, leaves)
        perm = leaves[min(leaves)]
    rows, enc = _relabel(n, up, perm)
    key = n.to_bytes(2, "big") + enc.to_bytes((n * n + 7) // 8, "big")
    return CanonResult(key=key, perm=perm, relabeled_up=tuple(rows), generators=generators)
