"""Isomorph-free exhaustive generation of posets and connected chainmails.

Search shape: a poset on k+1 elements is always a poset on k elements plus
one new maximal element whose strict down-set is a down-closed subset of
the parent.  Walking that tree and keeping exactly one representative per
isomorphism class is done McKay-style: a child is accepted only when its
new element lies in the automorphism orbit of a canonical deletion choice
(the maximal element holding the largest canonical label), and children of
one parent are deduplicated by canonical key.  Accepted children of
distinct parents can never be isomorphic, so no global seen-set is needed
and subtrees can run in parallel.

Connected chainmails are counted through completable posets: ones in
which no reduced mail (an antichain of at least two elements with a common
lower bound) has upper bounds without a least one.  Order between existing
elements never changes and new elements are maximal, so such a mail can
never again acquire a least upper bound; and deleting a maximal element
keeps a poset completable, so the search pruned to completable posets still
holds a canonical ancestry for each of them.

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

Canonical form with a top.  canon.canonicalize(P + t) gives the canonical
up-rows of P with bit n - 1 set in each and the row 1 << (n - 1) appended,
so catalog entries need no second canonicalization.  The refinement gives
t a cell of its own, last, because t alone has a down-set of n elements;
from then on t's cell adds the same constant to every other element's
signature, so refinement and search split P's elements exactly as they do
without t, and every leaf ends in t.  Equal encodings stay equal, so the
same automorphisms prune the search.  An encoding is compared from its last
row down: the top's row is the same in every leaf, and each other row is
P's row with one fixed bit set, so the order of encodings over leaves, and
over different posets, is their order without the top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from . import canon
from .config import (
    DEFAULT_CHAINMAIL_ENUM_CAP,
    DEEP_CHAINMAIL_ENUM_CAP,
    DEFAULT_POSET_ENUM_CAP,
)
from .connectivity import ConnectivityPair
from .errors import GuardExceeded, PreconditionError
from .poset import FinitePoset, bits_of, downset_masks, reduced_mail_scan, transpose


@dataclass(frozen=True)
class EnumerationResult:
    n: int
    count: int
    catalog: Optional[tuple]  # canonical FinitePoset values, sorted by key
    elapsed: float


# ---------------------------------------------------------------------------
# search primitives
# ---------------------------------------------------------------------------

def _is_completable(n: int, up: Sequence[int], down: Sequence[int]) -> bool:
    return reduced_mail_scan(n, up, down, allow_unbounded=True) is None


def _accepted(k1: int, up1: Tuple[int, ...], down1: Tuple[int, ...]):
    """McKay acceptance for the child that added element k1-1; returns the
    canonicalization when accepted, else None."""
    result = canon.canonicalize(k1, up1, down1)
    pos = [0] * k1
    for i, e in enumerate(result.perm):
        pos[e] = i
    best = None
    for e in range(k1):
        if up1[e] == 1 << e:  # maximal
            if best is None or pos[e] > pos[best]:
                best = e
    if result.same_orbit(best, k1 - 1):
        return result
    return None


def _children(k: int, up: Tuple[int, ...], completable: bool):
    """Accepted, deduplicated children of a parent, only completable ones
    when ``completable``; yields (k+1, up-rows, canon-result)."""
    down = transpose(k, up)
    k1 = k + 1
    newbit = 1 << k
    seen = set()
    for dmask in downset_masks(k, down):
        up1 = tuple((up[a] | newbit) if dmask >> a & 1 else up[a] for a in range(k)) + (newbit,)
        down1 = _down_of_child(k, down, dmask)
        if completable and not _is_completable(k1, up1, down1):
            continue
        result = _accepted(k1, up1, down1)
        if result is None:
            continue
        if result.key in seen:
            continue
        seen.add(result.key)
        yield k1, up1, result


def _down_of_child(k: int, down: Sequence[int], dmask: int) -> Tuple[int, ...]:
    newbit = 1 << k
    return tuple(down[a] for a in range(k)) + (dmask | newbit,)


def _expand(k: int, up: Tuple[int, ...], completable: bool, target: int,
            want_catalog: bool, sink: list) -> int:
    """Depth-first expansion; returns the number of classes found at the
    target level underneath this node."""
    found = 0
    for k1, up1, result in _children(k, up, completable):
        if k1 == target:
            found += 1
            if want_catalog:
                sink.append((result.key, result.relabeled_up))
        else:
            found += _expand(k1, up1, completable, target, want_catalog, sink)
    return found


def _worker(payload):
    completable, target, want_catalog, roots = payload
    sink: list = []
    total = 0
    for k, up in roots:
        total += _expand(k, tuple(up), completable, target, want_catalog, sink)
    return total, sink


def _with_top(k: int, rows: Sequence[int]) -> tuple:
    """Up-rows of a k-element poset with a top added as element k."""
    top = 1 << k
    return tuple(r | top for r in rows) + (top,)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _enumerate(completable: bool, target: int, want_catalog: bool, threads: int):
    """(count, [(key, canonical up-rows)] sorted by key) of the classes on
    ``target`` elements, only completable ones when ``completable``."""
    entries: list = []
    root_level = max(0, target - 3) if threads > 1 else 0
    frontier: list = [(0, ())]
    level = 0
    while level < root_level:
        nxt = []
        for k, up in frontier:
            for k1, up1, _result in _children(k, up, completable):
                nxt.append((k1, up1))
        frontier = nxt
        level += 1

    if threads > 1 and len(frontier) > 1:
        import multiprocessing as mp

        chunks = [[] for _ in range(min(threads * 4, len(frontier)))]
        for i, root in enumerate(frontier):
            chunks[i % len(chunks)].append(root)
        payloads = [(completable, target, want_catalog, chunk) for chunk in chunks]
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=threads) as pool:
            results = pool.map(_worker, payloads)
        count = sum(c for c, _ in results)
        for _, sink in results:
            entries.extend(sink)
    else:
        count = 0
        for k, up in frontier:
            if k == target:
                # root level reached the target already
                result = canon.canonicalize(k, up, transpose(k, up))
                count += 1
                if want_catalog:
                    entries.append((result.key, result.relabeled_up))
            else:
                count += _expand(k, up, completable, target, want_catalog, entries)
    entries.sort(key=lambda e: e[0])
    return count, entries


def enumerate_posets(n: int, want_catalog: bool = False, threads: int = 1,
                     cap: int = DEFAULT_POSET_ENUM_CAP) -> EnumerationResult:
    """All posets on n elements up to isomorphism."""
    if n < 0:
        raise PreconditionError("n must be non-negative")
    if n > cap:
        raise GuardExceeded(f"poset enumeration capped at n={cap}")
    t0 = time.perf_counter()
    count, entries = _enumerate(False, n, want_catalog, threads)
    catalog = tuple(FinitePoset(n, rows) for _key, rows in entries) if want_catalog else None
    return EnumerationResult(n, count, catalog, time.perf_counter() - t0)


def enumerate_connected_chainmails(n: int, want_catalog: bool = False, threads: int = 1,
                                   deep: bool = False) -> EnumerationResult:
    """Isomorphism classes of mail-connected chainmails on n elements.

    The empty poset counts at n = 0.  For n >= 1 these are the completable
    posets on n - 1 elements with a top added (see the module docstring);
    catalog entries are canonical and sorted by canonical key.  Sizes 9 and
    10 sit behind ``deep``; they take considerably longer.
    """
    if n < 0:
        raise PreconditionError("n must be non-negative")
    cap = DEEP_CHAINMAIL_ENUM_CAP if deep else DEFAULT_CHAINMAIL_ENUM_CAP
    if n > cap:
        if not deep and n <= DEEP_CHAINMAIL_ENUM_CAP:
            raise GuardExceeded(f"chainmail enumeration beyond n={DEFAULT_CHAINMAIL_ENUM_CAP} needs --deep")
        raise GuardExceeded(f"chainmail enumeration capped at n={cap}")
    t0 = time.perf_counter()
    if n == 0:
        catalog = (FinitePoset(0, ()),) if want_catalog else None
        return EnumerationResult(0, 1, catalog, time.perf_counter() - t0)
    count, entries = _enumerate(True, n - 1, want_catalog, threads)
    catalog = None
    if want_catalog:
        catalog = tuple(FinitePoset(n, _with_top(n - 1, rows)) for _key, rows in entries)
    return EnumerationResult(n, count, catalog, time.perf_counter() - t0)


def enumerate_complete_lattices(max_size: int) -> List[FinitePoset]:
    """Canonical complete lattices with 1..max_size elements, smaller sizes
    first, canonical-key order inside a size."""
    out = []
    for size in range(1, max_size + 1):
        result = enumerate_posets(size, want_catalog=True)
        out.extend(p for p in result.catalog if p.is_complete_lattice())
    return out


def enumerate_connectivity_pairs(max_lattice_size: int) -> Iterator[ConnectivityPair]:
    """Every (complete lattice up to iso, subset) pair, streamed in
    deterministic order."""
    if max_lattice_size > 6:
        raise GuardExceeded("exhaustive pair corpus is capped at lattice size 6")
    for lattice in enumerate_complete_lattices(max_lattice_size):
        for cmask in range(1 << lattice.n):
            yield ConnectivityPair(lattice, frozenset(bits_of(cmask)))
