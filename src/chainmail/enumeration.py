"""Isomorph-free exhaustive generation of posets, connected chainmails and lattices.

Search shape: a poset on k+1 elements is always a poset on k elements plus
one new maximal element whose strict down-set is a down-closed subset of
the parent.  Walking that tree and keeping exactly one representative per
isomorphism class is done McKay-style: a child is accepted only when its
new element lies in the automorphism orbit of a canonical deletion choice
(the maximal element holding the largest canonical label), the test that
``canon.accept`` makes.  Accepted children of distinct parents can never
be isomorphic, so no global seen-set is needed and subtrees can run in
parallel.

One down-set per orbit.  Each search node carries generators of its
automorphism group, found by its own canonicalization and in its own
labels, and only the first down-set of each orbit of that group is tried
(``CanonResult.orbit_firsts``).  Down-sets in one orbit give isomorphic
children, so no class is lost.  Two accepted children over down-sets D
and E are isomorphic only when D and E share an orbit.  Each new element
lies in the orbit of its child's canonical deletion choice, and an
isomorphism f between the children maps the one orbit onto the other, so
f followed by an automorphism of the second child maps new element to
new element; it then restricts to an automorphism of the parent that
maps D onto E.  So the children of one parent need no deduplication by
key.

Connected chainmails are counted through completable posets: ones in
which no reduced mail (an antichain of at least two elements with a common
lower bound) has upper bounds without a least one.  Order between existing
elements never changes and new elements are maximal, so such a mail can
never again acquire a least upper bound; and deleting a maximal element
keeps a poset completable, so the search pruned to completable posets still
holds a canonical ancestry for each of them.

Pairwise joins.  Let P be completable and D a down-set of P.  The child
P + x with strict down-set D is completable exactly when every
incomparable pair a, b in D with a common lower and a common upper bound
in P has its join in D.  By the pair lemma (poset.mail_pairs), with the
up-rows of P + x and the empty mask as the clean upper bounds, it is
enough to look at pairs with a common lower bound.  A pair that holds x
has no upper bound: x is maximal and incomparable to the other.  A pair
not inside D has the upper bounds it had in P, and its join there, if
any, lies outside the down-set D, so its up-row is unchanged.  A pair
inside D has those and x: with none in P, x is its join; with some, its
join j in P is the least upper bound in P + x exactly when j < x, that
is when j is in D.  The pairs are listed once per parent
(poset.pair_joins), so a child costs a few mask tests.

Filters kept by the group.  The join test above, the bottom rule below
and the floor test, which drops a down-set smaller than the parent's
``canon.floor``, drop down-sets from the parent alone, before any child
is built.  Each depends on the parent's order alone, so its
automorphisms keep it, and the filtered list stays closed under the
group: each orbit passes whole or not at all, and its first down-set is
the same as in the full list.

The last level.  A node below the last level is kept whole, as (up-rows,
down-rows, CanonResult), since its automorphisms pick its children's
down-sets.  Of a class on the target size the walk reads only what the
run needs.  A count-only run counts a child over a down-set larger than
the parent's floor, which is accepted (see "Ties" in ``canon.accept``),
with no rows built.  Every other child goes through ``canon.accept``,
which for a catalog run returns its canonical up-rows packed at the
catalog's stride, straight from the stable cells when the labeling needs
no search.

Bijection.  For n >= 1, the mail-connected chainmails on n elements are
exactly the completable posets on n - 1 elements with a top added, and
isomorphism classes correspond one to one.
  * A mail-connected chainmail C is itself a mail-connected set, so it has
    a join t, which is a top.  Take a reduced mail M of P = C - t; it has a
    lower bound in P and a join j in C.  If j != t, then j is the least upper
    bound of M in P; if j = t, then t is the only upper bound of M, so M has
    none in P.  Either way P is completable.
  * Conversely, add a top t to a completable P.  A reduced mail of P + t
    lies inside P, since t is comparable to everything, and its upper bounds are those in P plus t: either there
    are none in P, and t is the join, or the least one in P is the join.
    Checking reduced mails suffices, so P + t is a chainmail, and every x
    forms the mail {x, t} with t, so P + t is mail-connected.
  * A top is the unique element above all others, so an isomorphism of
    the completed posets maps top to top and restricts to one of P.

Lattices.  For n >= 2, the lattices on n elements are exactly the
completable posets with a bottom on n - 1 elements with a top added.
  * Remove the top t of a lattice L.  In P = L - t every antichain has the
    bottom as a lower bound, and its join in L lies below each of its upper
    bounds, so when it has one in P the join is the least one in P.
  * Conversely, P + t is a mail-connected chainmail by the bijection, and
    with a bottom every non-empty set is a mail, so every set has a join.
The search is the completable one with one more rule: once the parent has
an element, the new element's down-set is non-empty, so it holds the
bottom.  Deleting a maximal element of a poset with a bottom and two or
more elements keeps the bottom, so canonical ancestry survives.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional

from . import canon
from .config import ENUM_CAPS
from .connectivity import ConnectivityPair
from .errors import GuardExceeded, PreconditionError
from .poset import FinitePoset, bits_of, downset_masks, is_integer, joins_inside, pair_joins


@dataclass(frozen=True)
class EnumerationResult:
    n: int
    count: int
    catalog: Optional[tuple]  # canonical FinitePoset values, sorted by key
    elapsed: float


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _downsets(up: tuple, down: tuple, parent: canon.CanonResult, completable: bool, bottom: bool) -> tuple:
    """``(floor, down-sets)``: the parent's ``canon.floor``, and the
    down-sets over which a child of the parent with these up- and
    down-rows is tried, one per orbit of the parent's automorphisms, read
    off its canonicalization ``parent``.  ``completable`` keeps the
    completable children only; ``bottom`` keeps, once the parent has an
    element, only new elements with a non-empty strict down-set.  These
    rules and the floor test run on the down-set list before the orbits
    are taken (see "Filters kept by the group" in the module docstring)."""
    k = len(up)
    floor = canon.floor(down)
    empty = not (bottom and k)
    joins = pair_joins(up, down) if completable else None
    masks = [d for d in downset_masks(k, down)
             if (d or empty) and d.bit_count() >= floor and (joins is None or joins_inside(d, joins))]
    return floor, parent.orbit_firsts(masks)


def _grow(up: tuple, down: tuple, dmask: int) -> tuple:
    """(up-rows, down-rows) of the child whose new maximal element has the
    strict down-set ``dmask``: the new bit goes into the up-row of each
    member of ``dmask``, taken low bit first."""
    newbit = 1 << len(up)
    up1 = list(up)
    rest = dmask
    while rest:
        low = rest & -rest
        up1[low.bit_length() - 1] |= newbit
        rest ^= low
    up1.append(newbit)
    return tuple(up1), down + (dmask | newbit,)


def _children(up: tuple, down: tuple, parent: canon.CanonResult, completable: bool, bottom: bool):
    """Accepted children of the parent with these up- and down-rows, as
    search nodes: ``canon.accept`` tries the child over each down-set of
    :func:`_downsets`."""
    k = len(up)
    for dmask in _downsets(up, down, parent, completable, bottom)[1]:
        up1, down1 = _grow(up, down, dmask)
        result = canon.accept(k + 1, up1, down1)
        if result is not None:
            yield up1, down1, result


# a search node is (up-rows, down-rows, CanonResult); the empty poset is the root
_ROOT = ((), (), canon.canonicalize(0, (), ()))


def _nodes(node, rule: tuple, depth: int):
    """The nodes on ``depth`` elements below ``node`` (``node`` itself when
    it has that many), in pre-order; the last level comes straight from
    :func:`_children`.  ``rule`` is the (completable, bottom) pair that
    :func:`_children` takes."""
    up, down, result = node
    k = len(up)
    if k == depth:
        yield node
    elif k + 1 == depth:
        yield from _children(up, down, result, *rule)
    elif k < depth:
        for child in _children(up, down, result, *rule):
            yield from _nodes(child, rule, depth)


def _worker(payload):
    """(count, packed entries) of the classes on ``target`` elements below
    the payload's root.  The walk stops at their parents and reads of each
    class only what the run needs (see "The last level" in the module
    docstring): a count-only run (``stride`` 0) counts a child over a
    down-set larger than its parent's floor with no rows built, and a
    catalog run takes each class's canonical up-rows packed at ``stride``
    bits per row from ``canon.accept``, and ORs in ``top_rows``, the
    packed rows of an added top (0 without one)."""
    rule, target, stride, top_rows, root = payload
    if not target:
        # the root, the empty poset, is the one class
        return 1, [top_rows] if stride else []
    count, packed = 0, []
    for up, down, parent in _nodes(root, rule, target - 1):
        floor, dmasks = _downsets(up, down, parent, *rule)
        for dmask in dmasks:
            if not stride and dmask.bit_count() > floor:
                count += 1
                continue
            entry = canon.accept(target, *_grow(up, down, dmask), stride)
            if entry is not None:
                count += 1
                if stride:
                    packed.append(entry | top_rows)
    return count, packed


def _enumerate(rule: tuple, target: int, want_catalog: bool, threads: int, top: bool = False):
    """(count, packed entries in key order) of the classes on ``target``
    elements, where ``rule`` is the (completable, bottom) pair
    passed to :func:`_children`.  An entry is a class's canonical up-rows,
    with a top added as element ``target`` when ``top`` is set, packed at
    ``canon.stride`` of the size with the top: a top's rows are one
    constant ORed in (see "Top" in the canon module docstring).

    The frontier is the walk's nodes on ``target - 3`` elements, each with
    its canonicalization, and ``_worker`` walks each frontier node's subtree
    as one task: in this process, or in a pool of ``threads`` processes,
    capped at the number of tasks and at ``os.cpu_count()``; no pool is
    opened for one.  The pool deals the tasks one at a time, in pre-order,
    to whichever worker is free: subtrees differ widely in size, and the
    largest come early, so dealing on demand evens the workers' finishing
    times.  Each entry crosses the pool as one int, and sorting the ints
    sorts by key (see "Order" in the canon module docstring), so neither
    the dealing nor the pool size changes the output.
    """
    stride = canon.stride(target + top) if want_catalog else 0
    top_rows = sum(1 << target << i * stride for i in range(target + 1)) if top and stride else 0
    payloads = [(rule, target, stride, top_rows, node) for node in _nodes(_ROOT, rule, max(target - 3, 0))]
    processes = min(threads, len(payloads), os.cpu_count() or 1)
    if processes > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=processes) as pool:
            results = pool.map(_worker, payloads, chunksize=1)
    else:
        results = list(map(_worker, payloads))
    return sum(count for count, _found in results), sorted(p for _count, found in results for p in found)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

# kind -> (rule for _children, top added, default cap, deep cap)
_KINDS = {
    "posets": ((False, False), False, *ENUM_CAPS["posets"]),
    "chainmails": ((True, False), True, *ENUM_CAPS["chainmails"]),
    "lattices": ((True, True), True, *ENUM_CAPS["lattices"]),
}


def _row(kind: str, n: int, threads: int = 1, deep: bool = False) -> tuple:
    """(rule, top added) of ``kind`` once the kind, n, threads and the cap
    pass: the one check, before any search."""
    if kind not in _KINDS:
        raise PreconditionError(f"no enumeration of kind {kind!r}")
    for name, value in (("n", n), ("threads", threads)):
        if not is_integer(value):
            raise PreconditionError(f"{name} must be an integer, got {value!r}")
    if n < 0:
        raise PreconditionError("n must be non-negative")
    if threads < 1:
        raise PreconditionError("threads must be at least 1")
    rule, top, cap, deep_cap = _KINDS[kind]
    if n > (deep_cap if deep else cap):
        if not deep and n <= deep_cap:
            raise GuardExceeded(f"{kind[:-1]} enumeration beyond n={cap} needs --deep")
        raise GuardExceeded(f"{kind[:-1]} enumeration capped at n={deep_cap}")
    return rule, top


def enumerate_kind(kind: str, n: int, want_catalog: bool = False, threads: int = 1,
                   deep: bool = False) -> EnumerationResult:
    """Posets, mail-connected chainmails or lattices on n elements up to
    isomorphism.  A chainmail is a completable poset on n - 1 elements with
    a top added, a lattice one with a bottom too (see the module docstring),
    and at n = 0 both kinds are the empty poset alone (A006966(0) = 1 for
    lattices).  Catalog entries are canonical, sorted by key, each unpacked
    from its int by one call of a ``struct`` layout made once per catalog.
    Sizes past a kind's default cap need ``deep``."""
    rule, top = _row(kind, n, threads, deep)
    t0 = time.perf_counter()
    if top and n == 0:
        count, rows = 1, [()]
    else:
        count, packed = _enumerate(rule, n - top, want_catalog, threads, top)
        layout = canon.row_struct(n)
        rows = [layout.unpack(p.to_bytes(layout.size, "little")) for p in packed]
    catalog = tuple(FinitePoset(n, r) for r in rows) if want_catalog else None
    return EnumerationResult(n, count, catalog, time.perf_counter() - t0)


def enumerate_posets(n: int, want_catalog: bool = False, threads: int = 1) -> EnumerationResult:
    """All posets on n elements up to isomorphism (:func:`enumerate_kind`)."""
    return enumerate_kind("posets", n, want_catalog, threads)


def enumerate_connected_chainmails(n: int, want_catalog: bool = False, threads: int = 1,
                                   deep: bool = False) -> EnumerationResult:
    """Mail-connected chainmails on n elements up to isomorphism (:func:`enumerate_kind`)."""
    return enumerate_kind("chainmails", n, want_catalog, threads, deep)


def enumerate_complete_lattices(max_size: int) -> List[FinitePoset]:
    """Canonical complete lattices with 1..max_size elements, smaller sizes
    first, canonical-key order inside a size; none for max_size <= 0.  Each
    size is one catalog of :func:`enumerate_kind`; the size checks are made
    once for max_size, before any search."""
    # max keeps its first argument on a tie, so a bool is still refused
    _row("lattices", max(max_size, 0))
    return [p for k in range(1, max_size + 1)
            for p in enumerate_kind("lattices", k, want_catalog=True).catalog]


def enumerate_connectivity_pairs(max_lattice_size: int) -> Iterator[ConnectivityPair]:
    """Every (complete lattice up to iso, subset) pair, streamed in
    deterministic order."""
    if max_lattice_size > 6:
        raise GuardExceeded("exhaustive pair corpus is capped at lattice size 6")
    for lattice in enumerate_complete_lattices(max_lattice_size):
        for cmask in range(1 << lattice.n):
            yield ConnectivityPair(lattice, frozenset(bits_of(cmask)))
