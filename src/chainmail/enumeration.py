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
and ``canon.degree_table`` drop down-sets from the parent alone, before
any child is built.  Each depends on the parent's order alone, so its
automorphisms keep it, and the filtered list stays closed under the
group: each orbit passes whole or not at all, and its first down-set is
the same as in the full list.

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
from typing import Iterator, List, Optional, Sequence

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

def _children(up: tuple, down: tuple, parent: canon.CanonResult, completable: bool, bottom: bool):
    """Accepted children of the parent with these up- and down-rows, as
    search nodes.  One down-set per orbit of the parent's automorphisms,
    read off its canonicalization ``parent``, is tried.  ``completable`` keeps
    the completable children only; ``bottom`` keeps, once the parent has
    an element, only new elements with a non-empty strict down-set.  These
    rules and ``canon.degree_table`` run on the down-set list before the
    orbits are taken (see "Filters kept by the group" in the module
    docstring)."""
    k = len(up)
    newbit = 1 << k
    need = canon.degree_table(k, up, down)
    joins = pair_joins(up, down) if completable else []
    masks = [d for d in downset_masks(k, down)
             if (d or not (bottom and k)) and not need[d.bit_count()] & ~d and joins_inside(d, joins)]
    for dmask in parent.orbit_firsts(masks):
        up1 = tuple((up[a] | newbit) if dmask >> a & 1 else up[a] for a in range(k)) + (newbit,)
        down1 = down + (dmask | newbit,)
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
    rule, target, want_catalog, root = payload
    count, entries = 0, []
    for _up, _down, result in _nodes(root, rule, target):
        count += 1
        if want_catalog:
            entries.append((result.key, result.relabeled_up))
    return count, entries


def _with_top(k: int, rows: Sequence[int]) -> tuple:
    """Up-rows of a k-element poset with a top added as element k; on
    canonical rows, the canonical rows of the result, in the same key
    order (see "Top" in the canon module docstring)."""
    top = 1 << k
    return tuple(r | top for r in rows) + (top,)


def _enumerate(rule: tuple, target: int, want_catalog: bool, threads: int):
    """(count, [(key, canonical up-rows)] sorted by key) of the classes on
    ``target`` elements, where ``rule`` is the (completable, bottom) pair
    passed to :func:`_children`.

    The frontier is the walk's nodes on ``target - 3`` elements, each with
    its canonicalization, and ``_worker`` walks each frontier node's subtree
    as one task: in this process, or in a pool of ``threads`` processes,
    capped at the number of tasks and at ``os.cpu_count()``; no pool is
    opened for one.  The pool deals the tasks one at a time, in pre-order,
    to whichever worker is free: subtrees differ widely in size, and the
    largest come early, so dealing on demand evens the workers' finishing
    times.  The entries are sorted by key, so neither the dealing nor the
    pool size changes the output.
    """
    payloads = [(rule, target, want_catalog, node) for node in _nodes(_ROOT, rule, max(target - 3, 0))]
    processes = min(threads, len(payloads), os.cpu_count() or 1)
    if processes > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=processes) as pool:
            results = pool.map(_worker, payloads, chunksize=1)
    else:
        results = list(map(_worker, payloads))
    entries = sorted((entry for _count, found in results for entry in found), key=lambda e: e[0])
    return sum(count for count, _found in results), entries


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
    lattices).  Catalog entries are canonical, sorted by key.  Sizes past a
    kind's default cap need ``deep``."""
    rule, top = _row(kind, n, threads, deep)
    t0 = time.perf_counter()
    if top and n == 0:
        count, rows = 1, [()]
    else:
        count, entries = _enumerate(rule, n - top, want_catalog, threads)
        rows = [_with_top(n - 1, r) if top else r for _key, r in entries]
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
