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
enumerator uses twice: for orbits of elements, in its acceptance test
:func:`accept`, and for orbits of down-sets.

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
generator list are those the search returns.  So the generators are the
twin swaps alone.  Such a result keeps n, the up-rows and the cells, and
builds each field on first read: ``perm``, the cells flattened; the twin
groups, the cells of two or more elements; the key and the canonical
rows, from one relabeling by ``perm``; the generators, the twin swaps.
A search result keeps its labeling and generators in place of the cells.
A leaf of the enumeration that is only counted reads none of them, and
:func:`accept` packs a catalog leaf's rows from the cells, with no result.

The same holds at a search node, which is equitable, whose every cell of
two or more elements runs, in order, through consecutive members of one
twin group the search was seeded with: individualizing the first member
of a run splits nothing, by the argument above, and each later member is
pruned, since the seed swaps between it and the first move no element of
the path.  So the node reaches one leaf, its cells flattened, and the
search records it as it records any leaf, without refining below it; the
leaf record and the generator list are those of the walk down to it.

Twin cells are equitable.  A partition whose every cell of two or more
elements is one twin group is already equitable: twins a and b have the
same strict down-set, so ``down[a]`` and ``down[b]`` meet a cell X in as
many elements, one more each when X is their own cell; likewise for
up-sets.  So when round one is such a partition, no refinement round
splits anything, and ``stable_partition`` returns it as it is; and
``_refine`` stops after any round that leaves such a partition.

Prefix rule.  The group of a one-leaf result is the product of the
symmetric groups on its twin groups, each listed in ascending order.  A
mask D lies in the orbit of every mask that agrees with it outside the
groups and meets each group in as many members, and the least of those
holds the first |D & G| members of each group G.  So D is the least of
its orbit exactly when no consecutive twins a < b have b in D and a not
in D, and :meth:`CanonResult.orbit_firsts` keeps those masks alone.

Bound.  Refinement and individualization only split a cell into
fragments that take its place in the list, so every leaf, the canonical
labeling among them, places each element at a position inside the span
of its cell of the first stable partition.  Automorphisms keep that
partition, so each orbit lies inside one of its cells.

Fresh cells.  A refinement round counts only against the cells the
previous round made, less the last fragment of each split cell; see
:func:`_refine` for why that gives the same ordered partition as counting
against every cell, and :func:`stable_partition` for round one.

Top.  Let t be a top added to a poset P as element n - 1.  Then
``canonicalize(P + t)`` has P's canonical rows with bit n - 1 set in each
and the row 1 << (n - 1) appended, and keys ordered as P's are.  Round
one gives t a cell of its own, last, as t alone has a down-set of n
elements; that cell adds one constant to every other signature, so
refinement and search split P's elements as they do without t, every
leaf ends in t, and the same automorphisms prune.  Encodings compare
from the last row down: t's row is the same in every leaf, and each
other row is P's with one fixed bit set, so encodings over leaves, and
over posets, are ordered as without t.  Packed at a stride s >= n (see
"Order"), the canonical rows of P + t are P's packed rows ORed with one
constant, bit n - 1 in each of the n fields, which no row of P touches.

Order.  A catalog entry crosses the worker pool as one int, its canonical
up-rows packed at a stride of s bits, ``packed = Σ rows[i] << (i·s)``.
For posets on the same n the key is n and then ``enc = Σ rows[i] << (i·n)``
in a fixed number of bytes, so keys compare as their ``enc`` do.  Each row
is below 2^n and s >= n, so no field overlaps the next, and both ints
compare the row vectors from the last row down: the highest differing bit
lies in the field of the last row that differs.  So packed order is key
order, and equal ints are equal rows, and ORing in a top's constant keeps
both.  :func:`stride` takes s as the least of 8, 16, 32 and 64 bits that
holds n, so that :func:`row_struct` unpacks a packed entry's
little-endian bytes with one ``struct`` call.  The kinds of
``enumeration._KINDS`` cap every catalog at 10 elements
(``config.ENUM_CAPS``: posets and lattices at 9, chainmails at 10), so
catalogs use s = 8 and s = 16 alone.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Sequence, Union


class CanonResult:
    """Key, labeling, canonical up-rows and automorphism generators of a
    poset.  Every result keeps n and the up-rows, and either the stable
    cells of a one-leaf labeling or the labeling and generators its search
    found; each field is built from those on first read, and a one-leaf
    result reads orbit representatives off its twin groups (see "One
    leaf" and "Prefix rule" in the module docstring)."""

    __slots__ = ("_key", "_perm", "_rows", "_generators", "_n", "_up", "_cells")

    def __init__(self, n: int, up: Sequence[int], cells: Optional[list] = None, perm: Optional[tuple] = None,
                 generators: Optional[list] = None):
        self._n, self._up, self._cells = n, up, cells
        self._perm, self._generators = perm, generators
        self._key = self._rows = None

    @property
    def perm(self) -> tuple:
        """perm[i] is the original element placed at canonical position i."""
        if self._perm is None:
            self._perm = tuple(v for cell in self._cells for v in cell)
        return self._perm

    @property
    def key(self) -> bytes:
        if self._key is None:
            self._label()
        return self._key

    @property
    def relabeled_up(self) -> tuple:
        """Up-rows of the canonical copy."""
        if self._rows is None:
            self._label()
        return self._rows

    def _label(self) -> None:
        enc = _relabel(self._n, self._up, self.perm, self._n)
        self._key, self._rows = _key(self._n, enc), _rows_of(self._n, enc)

    def packed(self, stride: int) -> int:
        """The canonical up-rows with row i at bit i * stride, for a stride
        of at least n (see "Order" in the module docstring): the columns
        moved there by ``perm`` at once, with no row tuple and no key."""
        return _relabel(self._n, self._up, self.perm, stride)

    @property
    def generators(self) -> list:
        """The automorphisms met by the search: the swaps of consecutive
        twins, then one per leaf that repeats an encoding."""
        if self._generators is None:
            self._generators = _twin_swaps(self._n, self._cells)
        return self._generators

    def orbit(self, v: int) -> set:
        """The automorphism orbit of v."""
        return _orbit(v, self.generators)

    def orbit_firsts(self, masks: list) -> Iterator[int]:
        """The first of ``masks`` in each automorphism orbit of element
        sets; ``masks`` must be ascending and closed under the group.  A
        one-leaf result keeps the masks the prefix rule allows (see the
        module docstring); a search result walks each orbit over the
        generators' images of the masks."""
        if self._cells is not None:
            pairs = [(1 << a, 1 << b) for group in self._cells if len(group) > 1 for a, b in zip(group, group[1:])]
            for d in masks:
                for a, b in pairs:
                    if d & b and not d & a:
                        break
                else:
                    yield d
            return
        moves = []
        for g in self._generators:
            move = {}
            for d in masks:
                image, rest = 0, d
                while rest:
                    low = rest & -rest
                    image |= 1 << g[low.bit_length() - 1]
                    rest ^= low
                move[d] = image
            moves.append(move)
        covered: set = set()
        for d in masks:
            if d not in covered:
                covered |= _orbit(d, moves)
                yield d


def _twin_swaps(n: int, groups: list) -> list:
    """The swaps of consecutive members of each twin group, in order;
    a cell of one element adds none."""
    swaps = []
    for group in groups:
        for a, b in zip(group, group[1:]):
            g = list(range(n))
            g[a], g[b] = b, a
            swaps.append(tuple(g))
    return swaps


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


def stable_partition(n: int, up: Sequence[int], down: Sequence[int]) -> tuple:
    """``(cells, twin)``: the equitable refinement of the unit partition,
    the first stable partition and root of the search, and whether every
    cell of two or more elements is one twin group.

    Round one is formed here.  Counted against the unit cell, the one
    cell there is, each element's signature is its ``(|down|, |up|)``, so
    the round groups the elements by that pair, packed into one int as in
    :func:`_refine`, and orders the groups by it.  Every fragment but the
    last is fresh: that is the start state of the "Fresh cells" invariant,
    since the partition is equitable against the unit cell, whose last
    fragment is the one cell not fresh.  When every cell of two or more
    elements is one twin group, as a single cell is (a minimal element has
    |down| = 1, so then all are, and the poset is an antichain), round one
    is already equitable (see "Twin cells are equitable" in the module
    docstring), and then ``_refine`` is not called.  Otherwise
    ``_refine`` gives the verdict on the cells it returns.
    """
    width = (n + 1).bit_length()
    groups: dict = {}
    for v in range(n):
        groups.setdefault((down[v].bit_count() << width) | up[v].bit_count(), []).append(v)
    cells = [groups[sig] for sig in sorted(groups)]
    if _twin_cells(up, down, cells):
        return cells, True
    return _refine(n, up, down, cells, cells[:-1])


def _twin_cells(up: Sequence[int], down: Sequence[int], cells: list) -> bool:
    """Whether every cell of two or more elements is one group of twins."""
    for cell in cells:
        if len(cell) > 1:
            v = cell[0]
            su, sd = up[v] ^ 1 << v, down[v] ^ 1 << v
            for w in cell[1:]:
                if up[w] ^ 1 << w != su or down[w] ^ 1 << w != sd:
                    return False
    return True


def _refine(n: int, up: Sequence[int], down: Sequence[int], cells: list, fresh: list) -> tuple:
    """``(cells, twin)``: the equitable refinement of an ordered partition,
    its split fragments ordered by signature, which keeps the result
    isomorphism-invariant, and whether a round that split a cell left
    every cell of two or more elements one twin group.  After such a
    round no later round splits anything (see "Twin cells are equitable"
    in the module docstring), so the refinement returns there.  When the
    cells passed in are not twin groups, ``twin`` says whether the cells
    returned are, which :func:`stable_partition` passes on; the search
    ignores it.

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
        if fresh and _twin_cells(up, down, cells):
            return cells, True
    return cells, False


def _key(n: int, enc: int) -> bytes:
    return n.to_bytes(2, "big") + enc.to_bytes((n * n + 7) // 8, "big")


def _relabel(n: int, up: Sequence[int], perm: tuple, stride: int) -> int:
    """Up-rows of the copy labeled by ``perm``, packed with row i at bit
    i * stride, for a stride of at least n: row i holds bit j when
    perm[i] <= perm[j].  With a stride of n this is the encoding.

    The rows move as columns, not bit by bit.  Packed with up[perm[i]] at
    bit i * stride, bit w of every row lies in column w, and
    ``(packed >> w) & ones``, where ``ones`` has bit 0 of every field,
    holds that column at bit 0 of each field; shifted left by i < stride,
    it is column i.  Moving column perm[i] to column i for every i sets bit
    j of row i exactly when perm[i] <= perm[j]: two loops of n steps each,
    to pack and move, rather than one step per set bit.
    """
    packed = 0
    for v in reversed(perm):
        packed = packed << stride | up[v]
    ones = ((1 << n * stride) - 1) // ((1 << stride) - 1) if n else 0
    moved = 0
    for i, w in enumerate(perm):
        moved |= (packed >> w & ones) << i
    return moved


def _rows_of(n: int, enc: int) -> tuple:
    """The rows of an encoding, row i from bit i * n."""
    row = (1 << n) - 1
    return tuple(enc >> i * n & row for i in range(n))


def stride(n: int) -> int:
    """Bits per row of a packed catalog entry on n elements, n <= 64: the
    least of 8, 16, 32 and 64 that holds n (see "Order" in the module
    docstring)."""
    return max(8, 1 << (n - 1).bit_length())


def row_struct(n: int) -> struct.Struct:
    """The layout of n rows packed at :func:`stride`, as little-endian
    bytes: ``unpack`` of a packed entry's ``to_bytes(size, "little")``
    gives its rows."""
    return struct.Struct(f"<{n}{'BHIQ'[stride(n).bit_length() - 4]}")


def _search(n: int, up, down, cells: list, path: tuple, generators: list, leaves: dict,
            follows: dict) -> None:
    """Individualize the first cell of two or more elements, member by
    member, below ``path``; ``leaves`` maps each encoding to the labeling
    of its first leaf, and a leaf that repeats an encoding adds an
    automorphism.  ``follows`` maps each member of a seeded twin group to
    the next; a node whose cells of two or more elements are all runs of it
    reaches one leaf, its cells flattened (see "One leaf" in the module
    docstring)."""
    idx = None
    for i, cell in enumerate(cells):
        if len(cell) > 1:
            if idx is None:
                idx = i
            if any(follows.get(a) != b for a, b in zip(cell, cell[1:])):
                break
    else:
        perm = tuple(v for cell in cells for v in cell)
        enc = _relabel(n, up, perm, n)
        prev = leaves.get(enc)
        if prev is None:
            leaves[enc] = perm
        else:
            g = [0] * n
            for i, v in enumerate(prev):
                g[v] = perm[i]
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
        refined = _refine(n, up, down, new_cells, [[v]])[0]
        _search(n, up, down, refined, path + (v,), generators, leaves, follows)


def canonicalize(n: int, up: Sequence[int], down: Sequence[int], *,
                 partition: Optional[tuple] = None) -> CanonResult:
    """Canonical key, labeling and automorphism generators of a poset.

    ``partition`` is ``stable_partition(n, up, down)`` when the caller has
    already computed it; the search starts from its cells, and its twin
    verdict picks the path, rather than refining and testing again.

    The canonical labeling is the first leaf with the least encoding; n = 0
    has one leaf, the empty labeling, encoded as 0.  ``generators`` opens
    with the swaps of consecutive twins in each cell, and when those cells
    with two or more elements are all twin groups there is no search: the
    result keeps the cells, the one leaf, and builds the labeling and
    generators, those swaps alone, on first read.  A search result keeps
    the labeling of its least encoding's leaf record.  Either builds its
    key and rows on first read (see "One leaf" in the module docstring).
    """
    cells, twin = partition or stable_partition(n, up, down)
    if twin:
        return CanonResult(n, up, cells)
    groups = []
    for cell in cells:
        if len(cell) > 1:
            twins: dict = {}
            for v in cell:
                twins.setdefault((up[v] ^ 1 << v, down[v] ^ 1 << v), []).append(v)
            groups += [group for group in twins.values() if len(group) > 1]
    generators = _twin_swaps(n, groups)
    follows = {a: b for group in groups for a, b in zip(group, group[1:])}
    leaves: dict = {}
    _search(n, up, down, cells, (), generators, leaves, follows)
    return CanonResult(n, up, perm=leaves[min(leaves)], generators=generators)


def accept(n: int, up: Sequence[int], down: Sequence[int], stride: int = 0) -> Union[CanonResult, int, None]:
    """McKay acceptance (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998) of a poset whose element n - 1 is maximal, as
    a child of the poset without it: its canonicalization when n - 1 lies
    in the automorphism orbit of the canonical deletion choice, the last
    maximal element of ``perm``, else None.  With a ``stride`` of at least
    n, a catalog's, the accepted child's canonical up-rows packed at that
    stride instead, as ``CanonResult.packed`` gives them.

    Round one orders the elements by ``(|down|, |up|)`` (see
    :func:`stable_partition`), and only a maximal element has |up| = 1, so
    a cell holds maximal elements only or none, and the last round-one
    cell holding one holds the maximal elements of largest |down|.  By
    "Bound" in the module docstring, the choice and its orbit lie in the
    last stable cell holding a maximal element, inside that round-one
    cell.  So a new element outside that stable cell is rejected here
    before any labeling.  A one-leaf result takes ``perm`` from the cells
    in list order, each ascending, so there the choice is the largest
    member of that cell, n - 1 itself, and the child is accepted with no
    orbit test; with a ``stride``, its rows are packed straight from the
    cells, with no ``CanonResult``.

    Ties.  The parent decides the child over a down-set d by |d| alone
    unless |d| is its :func:`floor`, the size of its largest strict
    down-set.  The new element x has |down| = |d| + 1, and the child's
    other maximal elements are the parent's maximal elements outside d,
    with their down-sets.  An element of d has its down-set inside d, so
    no element with |down| > |d| lies in d.  When |d| < floor, an element
    with |down| = floor + 1 therefore lies outside d, and it is maximal,
    as an element above it would have a larger down-set; it keeps a
    larger |down| than x, x is not in the last round-one cell holding a
    maximal element, and the child is rejected.  When |d| > floor, every
    other maximal element has a smaller |down| than x, so x is alone in
    that cell; refinement splits cells in place, so {x} stays the last
    stable cell holding one, the choice lies in it, and the child is
    accepted.
    """
    cells, twin = stable_partition(n, up, down)
    for last in reversed(cells):
        if up[last[0]] == 1 << last[0]:
            break
    if n - 1 not in last:
        return None
    if twin and stride:
        return _relabel(n, up, [v for cell in cells for v in cell], stride)
    result = canonicalize(n, up, down, partition=(cells, twin))
    if not twin:
        best = next(e for e in reversed(result.perm) if up[e] == 1 << e)
        if n - 1 not in result.orbit(best):
            return None
    return result.packed(stride) if stride else result


def floor(down: Sequence[int]) -> int:
    """The parent's half of :func:`accept` for a poset with these
    down-rows: the size of its largest strict down-set, -1 for the empty
    poset.  The child over a down-set d is rejected when |d| < floor and
    accepted when |d| > floor (see "Ties" in :func:`accept`)."""
    return max(map(int.bit_count, down), default=0) - 1
