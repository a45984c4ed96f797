"""Finite posets: mails, joins, components, chainmail tests, isomorphism.

Elements are the integers ``0..n-1``.  The order relation is stored as a
tuple ``up`` of ``n`` bitmasks where bit ``b`` of ``up[a]`` means ``a <= b``;
the transposed masks ``down`` are derived once and cached.  All operations
are pure; :class:`FinitePoset` values are immutable and hashable.

Terminology used throughout the package:

* a *mail* is a non-empty set of elements with a common lower bound;
* a set is *mail-connected* when any two of its elements are linked by a
  path of two-element mails inside the set;
* a *chainmail* is a poset in which every mail-connected set has a join
  (equivalently, every mail has a join);
* a set is *totally mail-disconnected* (TMD) when no two distinct members
  share a lower bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .config import DEFAULT_MAX_TMD_SETS, max_n
from .errors import FormatError, GuardExceeded, PreconditionError
from . import canon

ElementSet = frozenset  # subsets of range(n); bitmasks are internal only


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


# _BITS_s[m]: the set bits of m << s, ascending, for each byte m
_BITS_0, _BITS_8, _BITS_16, _BITS_24 = (
    tuple(tuple(i + shift for i in range(8) if m >> i & 1) for m in range(256))
    for shift in (0, 8, 16, 24))


def bits_of(mask: int) -> Iterable[int]:
    """The set bits of a non-negative ``mask``, ascending.

    Most masks of the analysis path are below 2^32, and for those a tuple
    is read from the byte tables (one entry below 256, four joined below
    2^32), which costs less than starting a generator.  A wider mask is
    walked lazily, low bit first, so a loop that stops early (``next``,
    ``any``, a ``break``) never builds a long sequence.
    """
    if mask < 256:
        return _BITS_0[mask]
    if mask < 4294967296:
        return (_BITS_0[mask & 255] + _BITS_8[mask >> 8 & 255]
                + _BITS_16[mask >> 16 & 255] + _BITS_24[mask >> 24])
    return _low_bits(mask)


def _low_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset:
    return frozenset(bits_of(mask))


def is_integer(value) -> bool:
    """An int that is not a bool: the one integer test of inputs (floats
    and strings are refused rather than truncated or parsed, and True is
    not taken for 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_element(n: int, x: int) -> None:
    """Refuse an x that is not an integer in 0..n-1; a negative one reads
    another's row, and True would read row 1."""
    if not (is_integer(x) and 0 <= x < n):
        raise IndexError(f"element {x} out of range")


def check_count(n: int, what: str = "element count") -> None:
    """Refuse a count that is not a non-negative integer before any row is
    built: a bool would pass for 0 or 1, and a float or a negative count
    would fail with a bare TypeError or ValueError."""
    if not is_integer(n):
        raise FormatError(f"{what} must be an integer, got {n!r}")
    if n < 0:
        raise FormatError(f"{what} must be non-negative")


def checked_mask(n: int, members: Iterable[int]) -> int:
    """The mask of ``members``, refusing any outside 0..n-1 as
    :func:`check_element` does: the one check of the public entries that
    take a set of elements."""
    m = 0
    for x in members:
        check_element(n, x)
        m |= 1 << x
    return m


def submasks(mask: int) -> Iterator[int]:
    """Every subset of ``mask`` as a bitmask, from ``mask`` down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class Violation:
    """A failed poset axiom together with a witness pair or triple."""

    axiom: str
    witness: tuple

    def describe(self) -> str:
        return f"{self.axiom} fails at {self.witness}"


# ---------------------------------------------------------------------------
# low-level core on (n, up, down) bitmask arrays
#
# The enumeration search constructs millions of candidate posets; these
# functions avoid FinitePoset object overhead on that hot path.
# ---------------------------------------------------------------------------

def transpose(n: int, rows: Sequence[int]) -> tuple:
    out = [0] * n
    for a in range(n):
        r = rows[a]
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= 1 << a
            r ^= low
    return tuple(out)


def maximal_mask(up: Sequence[int], within: int) -> int:
    """The maximal elements of ``within`` under the up-rows ``up``."""
    out = 0
    for a in bits_of(within):
        if up[a] & within == 1 << a:
            out |= 1 << a
    return out


def mail_mates(n: int, up: Sequence[int], down: Sequence[int], lows: int) -> tuple:
    """Row a: the b such that a and b share a lower bound in ``lows``.
    Those b lie above some l in ``down[a] & lows``: the OR of their ``up[l]``."""
    rows = []
    for a in range(n):
        row = 0
        ls = down[a] & lows
        while ls:
            low = ls & -ls
            row |= up[low.bit_length() - 1]
            ls ^= low
        rows.append(row)
    return tuple(rows)


def downset_masks(n: int, down: Sequence[int]) -> list:
    """Every down-closed subset of ``0..n-1`` as a bitmask, ascending.

    Elements are taken by increasing |down|, a linear extension, so the
    down-sets of the elements taken so far are those before plus each one
    holding the new element's strict down-set, with the element added:
    O(n) per down-set, then a sort.
    """
    out = [0]
    for e in sorted(range(n), key=lambda v: down[v].bit_count()):
        bit = 1 << e
        below = down[e] ^ bit
        out += [d | bit for d in out if not below & ~d]
    out.sort()
    return out


def tmd_masks(p: FinitePoset, within: int, limit: int = DEFAULT_MAX_TMD_SETS) -> tuple:
    """(masks, ubs, doms): every subset of ``within`` in which no two
    members share a lower bound inside ``within``, as bitmasks in
    lexicographic order of sorted member tuples (the empty set first),
    with each set's upper-bound mask (the AND of its members' up-rows, the
    full mask for the empty set) and its down-set (the OR of their
    down-rows).  With ``within`` the full mask these are the totally
    mail-disconnected sets of ``p``.

    Invariant of the search: ``extend(mask, ub, dom, cand)`` is entered
    with ``mask`` such a set, ``ub`` and ``dom`` its two masks, and
    ``cand`` the members of ``within`` above its largest member that share
    no lower bound in ``within`` with any member.  Taking the lowest
    candidate b leaves in ``cand`` exactly the larger ones, so ``cand &
    ~mates[b]`` is the candidate set of ``mask | b``, and the search
    recurses only when it is not empty.  No other set is visited.
    Candidates are taken in increasing order and each set is emitted
    before its extensions, which is the lexicographic order.  ``limit``
    is checked by :func:`check_count` before the search.
    """
    check_count(limit, "limit")
    up, down = p.up, p.down
    mates = mail_mates(p.n, up, down, within)
    masks, ubs, doms = [0], [p.full_mask], [0]

    def extend(mask: int, ub: int, dom: int, cand: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            b = low.bit_length() - 1
            sub, sub_ub, sub_dom = mask | low, ub & up[b], dom | down[b]
            masks.append(sub)
            ubs.append(sub_ub)
            doms.append(sub_dom)
            if len(masks) > limit:
                raise GuardExceeded(
                    f"TMD family exceeds {limit} sets; raise the limit explicitly"
                )
            rest = cand & ~mates[b]
            if rest:
                extend(sub, sub_ub, sub_dom, rest)

    extend(0, p.full_mask, 0, within)
    # extend refers to itself through its closure; unbinding it breaks that
    # cycle, so the lists are freed on return, not at some later collection
    del extend
    return tuple(masks), tuple(ubs), tuple(doms)


def mail_pairs(up: Sequence[int], down: Sequence[int], members: int, lows: int) -> Iterator[tuple]:
    """(pair mask, upper-bound mask) of each incomparable pair of
    ``members`` with a common lower bound in ``lows``, in lex order.

    Pair lemma: let ``clean`` be a set of upper-bound masks that holds
    ``up[m]`` for every member m, and perhaps 0.  When every pair listed
    here has its upper bounds in ``clean``, so does every antichain S of
    members with |S| >= 2 and a common lower bound in ``lows``.  By
    induction on |S|: if a, b in S have the upper bounds of member m, then
    m is above the common lower bound of S, and S with a, b swapped for m
    has the upper bounds of S; its maximal elements keep both and are a
    smaller such antichain, or one member, whose up-row those bounds are.
    If a, b have no upper bound, neither has S.
    With ``clean`` the up-rows, the row lemma of
    :attr:`FinitePoset.up_index` turns this into: a poset is a chainmail
    when every pair with a common lower bound has a join.
    """
    for a in bits_of(members):
        for b in bits_of(members & ~(up[a] | down[a]) & ~((2 << a) - 1)):
            if down[a] & down[b] & lows:
                yield 1 << a | 1 << b, up[a] & up[b]


def pair_joins(up: Sequence[int], down: Sequence[int]) -> list:
    """(pair mask, join bit) of each incomparable pair with a common lower
    and a common upper bound, in a poset where those upper bounds have a
    least element (a completable poset or a chainmail)."""
    where = {row: a for a, row in enumerate(up)}
    full = (1 << len(up)) - 1
    return [(pair, 1 << where[ub]) for pair, ub in mail_pairs(up, down, full, full) if ub]


def joins_inside(dmask: int, joins: list) -> bool:
    """Every pair of ``joins`` inside ``dmask`` has its join inside it."""
    return all(dmask & pair != pair or dmask & j for pair, j in joins)


def inclusion_rows(masks: Iterable[int], ceilings: Sequence[int]) -> tuple:
    """Row i: the j such that ``masks[i]`` lies inside ``ceilings[j]``.
    That is the AND over its members a of ``cols[a]``, the j whose ceiling holds a."""
    width = max(ceilings, default=0).bit_length()
    cols = [0] * width
    bit = 1
    for c in ceilings:
        while c:
            low = c & -c
            cols[low.bit_length() - 1] |= bit
            c ^= low
        bit <<= 1
    rows = []
    for m in masks:
        # no j when a member lies past every ceiling, all j for the empty mask
        row = 0 if m >> width else bit - 1
        while m and row:
            low = m & -m
            row &= cols[low.bit_length() - 1]
            m ^= low
        rows.append(row)
    return tuple(rows)


def first_mail(
    n: int,
    up: Sequence[int],
    down: Sequence[int],
    members: int,
    lows: int,
    bad: Callable[[int], bool],
) -> Optional[int]:
    """First antichain S of ``members`` with |S| >= 2, a common lower bound
    in ``lows`` and ``bad(upper-bound mask of S)``, as a bitmask, or None.

    "First" is lexicographic order of sorted member tuples, a prefix before
    its extensions.  ``bad`` must be false on ``up[m]`` for every member m.

    Fast exit: no such S exists when every pair of :func:`mail_pairs` has
    the upper bounds of a member, or none while ``bad(0)`` is false (the
    pair lemma).

    Lex descent: otherwise the search follows sorted prefixes and enters a
    child only when ``ahead`` finds a bad mail among its extensions, so it
    never backtracks.  ``bad`` depends on upper bounds only, and the
    maximal elements of any extension have the same upper bounds and more
    lower bounds, so ``ahead`` may add candidates freely: it searches the
    masks reachable from ``ub`` by intersecting with ``up[t]``, for t among
    the candidates above one minimal lower bound at a time.  When every
    reached mask that is not bad is principal or empty (always, for the
    chainmail tests, and for the join tests on lattices), each search
    visits at most n + 1 masks.
    """
    clean = {up[m] for m in bits_of(members)}
    if not bad(0):
        clean.add(0)
    if all(ub in clean for _pair, ub in mail_pairs(up, down, members, lows)):
        return None
    full = (1 << n) - 1
    incomp = [full & ~(up[a] | down[a]) for a in range(n)]

    def ahead(ub: int, lo: int, cand: int) -> bool:
        for low in bits_of(lo):
            if down[low] & lo != 1 << low:
                continue
            rows = [up[t] for t in bits_of(cand & up[low])]
            seen = {ub}
            stack = [ub]
            while stack:
                u = stack.pop()
                for row in rows:
                    v = u & row
                    if v not in seen:
                        if bad(v):
                            return True
                        seen.add(v)
                        stack.append(v)
        return False

    mask, lo, ub, cand = 0, lows, full, members
    while True:
        for b in bits_of(cand):
            newlo = lo & down[b]
            if not newlo:
                continue
            newub = ub & up[b]
            if mask and bad(newub):
                return mask | 1 << b
            newcand = cand & incomp[b] & ~((2 << b) - 1)
            if ahead(newub, newlo, newcand):
                mask, lo, ub, cand = mask | 1 << b, newlo, newub, newcand
                break
        else:
            return None


def reduced_mail_scan(
    n: int,
    up: Sequence[int],
    down: Sequence[int],
    allow_unbounded: bool,
) -> Optional[int]:
    """First (lex order) reduced mail without a join, as a bitmask.

    A reduced mail is an antichain of size >= 2 with a common lower bound.
    With ``allow_unbounded`` a mail whose upper-bound set is empty does not
    count as a violation (a future maximal element can still provide the
    join); that variant decides completability.
    Returns None when no violating mail exists.
    No library code calls this walk; the chainmail and completability tests
    read pair joins (:func:`mail_pairs`).  It is the walking reference the
    tests compare them against, and the benchmark's tracer names it.
    """
    principal = set(up)   # the row lemma of FinitePoset.up_index

    def bad(ub: int) -> bool:
        return ub not in principal and (ub != 0 or not allow_unbounded)

    full = (1 << n) - 1
    return first_mail(n, up, down, full, full, bad)


def component_masks(adjacency: Sequence[int], within: int) -> list:
    """Connected components of ``within`` under a bitmask adjacency, sorted
    by least member."""
    out = []
    seen = 0
    todo = within
    while todo:
        start = todo & -todo
        comp = start
        frontier = start
        while frontier:
            grown = 0
            for v in bits_of(frontier):
                grown |= adjacency[v]
            grown &= within & ~comp
            comp |= grown
            frontier = grown
        out.append(comp)
        seen |= comp
        todo = within & ~seen
    return out


class cached_attribute:
    """A method read as an attribute, computed on the first read and then
    stored in the instance ``__dict__``, where later reads find it without
    calling this descriptor.

    Unlike :class:`functools.cached_property` before Python 3.12, no lock
    is taken: the values cached here are pure functions of the instance,
    and the package runs in parallel only through processes, so two
    threads racing on one first read at worst compute the value twice.
    The store bypasses ``__setattr__``, so frozen dataclasses can use it.
    """

    def __init__(self, func: Callable):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


# ---------------------------------------------------------------------------
# FinitePoset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePoset:
    """An immutable finite poset on elements ``0..n-1``.

    ``up`` may be given as any sequence of row masks; it is kept as a
    tuple, so that the value stays hashable and equal to the same rows
    given as a tuple."""

    n: int
    up: tuple

    def __post_init__(self):
        check_count(self.n)
        if type(self.up) is not tuple:
            object.__setattr__(self, "up", tuple(self.up))
        if len(self.up) != self.n:
            raise FormatError("up-set table length does not match n")

    # -- construction -------------------------------------------------

    @staticmethod
    def from_leq_pairs(n: int, pairs: Iterable[tuple], close: bool = False) -> "FinitePoset":
        """Build from (a, b) pairs meaning a <= b.

        Reflexive pairs are implied.  With ``close`` the reflexive-transitive
        closure is taken; otherwise the input must already be transitively
        closed (checked by :meth:`validate`, not here).  An end that is not
        an integer in 0..n-1 is refused with a FormatError.
        """
        check_count(n)
        rows = [1 << a for a in range(n)]
        for a, b in pairs:
            if not (is_integer(a) and is_integer(b)):
                raise FormatError(f"bad leq pair: {[a, b]!r}")
            if not (0 <= a < n and 0 <= b < n):
                raise FormatError(f"pair ({a},{b}) out of range for n={n}")
            rows[a] |= 1 << b
        if close:
            # Warshall: after step k, row a holds every b reached from a
            # through intermediates among 0..k
            for k in range(n):
                bit, row_k = 1 << k, rows[k]
                for a in range(n):
                    if rows[a] & bit:
                        rows[a] |= row_k
        return FinitePoset(n, tuple(rows))

    @staticmethod
    def from_cover_pairs(n: int, covers: Iterable[tuple]) -> "FinitePoset":
        """Build from a Hasse-style cover list (a, b) meaning a < b."""
        return FinitePoset.from_leq_pairs(n, covers, close=True)

    @staticmethod
    def chain(n: int) -> "FinitePoset":
        check_count(n)
        full = (1 << n) - 1
        return FinitePoset(n, tuple(full & ~((1 << a) - 1) for a in range(n)))

    @staticmethod
    def antichain(n: int) -> "FinitePoset":
        check_count(n)
        return FinitePoset(n, tuple(1 << a for a in range(n)))

    @staticmethod
    def powerset_lattice(k: int) -> "FinitePoset":
        """Subsets of a k-set ordered by inclusion; element i IS the subset
        with bitmask i."""
        check_count(k, "point count")
        n = 1 << k
        return FinitePoset(n, inclusion_rows(range(n), range(n)))

    @staticmethod
    def induced(base: "FinitePoset", members: Iterable[int]) -> "FinitePoset":
        """Subposet on ``members`` (ascending order keeps indices stable)."""
        elems = sorted(set(members))
        index = {e: i for i, e in enumerate(elems)}
        rows = []
        for e in elems:
            check_element(base.n, e)
            row = 0
            for f in bits_of(base.up[e]):
                if f in index:
                    row |= 1 << index[f]
            rows.append(row)
        return FinitePoset(len(elems), tuple(rows))

    # -- derived tables -----------------------------------------------

    @cached_attribute
    def down(self) -> tuple:
        return transpose(self.n, self.up)

    @cached_attribute
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_attribute
    def up_index(self) -> dict:
        """{up-row: element}.

        Row lemma: the upper bounds of a set have a least element exactly
        when they are some element's up-row, and that element is the join.
        (If u is the least upper bound, the upper bounds are the elements
        above u, which is ``up[u]``; if they are ``up[u]``, u is one of
        them and below the rest.)  So a join is one lookup of the set's
        :meth:`upper_bound_mask`, and in a lattice the lookup always
        succeeds.  Dually, a meet is one lookup of the lower-bound mask in
        :attr:`down_index`; the bottom is the join and the top the meet of
        the empty set, whose bounds are the full mask.
        """
        return dict(zip(self.up, range(self.n)))

    @cached_attribute
    def down_index(self) -> dict:
        """{down-row: element}, the dual of :attr:`up_index`."""
        return dict(zip(self.down, range(self.n)))

    @cached_attribute
    def mail_mates(self) -> tuple:
        """mail_mates[a] = bitmask of b such that {a, b} is a mail."""
        return mail_mates(self.n, self.up, self.down, self.full_mask)

    @cached_attribute
    def covers(self) -> tuple:
        """(a, b) pairs where b covers a: the b minimal in a's strict up-set."""
        return tuple((a, b) for a in range(self.n)
                     for b in bits_of(maximal_mask(self.down, self.up[a] & ~(1 << a))))

    def leq(self, a: int, b: int) -> bool:
        check_element(self.n, a)
        check_element(self.n, b)
        return bool(self.up[a] >> b & 1)

    # -- axioms ---------------------------------------------------------

    def validate(self) -> Optional[Violation]:
        """None when the relation is a partial order, else the first failed
        axiom with a witness."""
        n, up = self.n, self.up
        if up and (min(up) < 0 or max(up) >> n):
            return Violation("range", (next(a for a in range(n) if up[a] < 0 or up[a] >> n),))
        for a in range(n):
            if not up[a] >> a & 1:
                return Violation("reflexivity", (a,))
        for a in range(n):
            for b in bits_of(up[a] & ~(1 << a)):
                if up[b] >> a & 1:
                    return Violation("antisymmetry", (a, b))
        for a in range(n):
            for b in bits_of(up[a]):
                if up[b] & ~up[a]:
                    c = next(iter(bits_of(up[b] & ~up[a])))
                    return Violation("transitivity", (a, b, c))
        return None

    # -- sets, bounds, joins -------------------------------------------

    def down_set(self, x: int) -> frozenset:
        check_element(self.n, x)
        return set_of(self.down[x])

    def up_set(self, x: int) -> frozenset:
        check_element(self.n, x)
        return set_of(self.up[x])

    def upper_bound_mask(self, xmask: int) -> int:
        """The common upper bounds of the members of ``xmask``, as a mask."""
        ub = self.full_mask
        for x in bits_of(xmask):
            ub &= self.up[x]
        return ub

    def lower_bound_mask(self, xmask: int) -> int:
        """The common lower bounds of the members of ``xmask``, as a mask."""
        lb = self.full_mask
        for x in bits_of(xmask):
            lb &= self.down[x]
        return lb

    def lower_bounds(self, members: Iterable[int]) -> frozenset:
        return set_of(self.lower_bound_mask(checked_mask(self.n, members)))

    def upper_bounds(self, members: Iterable[int]) -> frozenset:
        return set_of(self.upper_bound_mask(checked_mask(self.n, members)))

    def join(self, members: Iterable[int]) -> Optional[int]:
        """Least upper bound, or None.  join(()) is the bottom when one
        exists."""
        return self.up_index.get(self.upper_bound_mask(checked_mask(self.n, members)))

    def meet(self, members: Iterable[int]) -> Optional[int]:
        """Greatest lower bound, or None.  meet(()) is the top when one
        exists."""
        return self.down_index.get(self.lower_bound_mask(checked_mask(self.n, members)))

    def bottom(self) -> Optional[int]:
        """The least element, or None."""
        return self.up_index.get(self.full_mask)

    def top(self) -> Optional[int]:
        """The greatest element, or None."""
        return self.down_index.get(self.full_mask)

    def maximal_elements(self, within: Optional[Iterable[int]] = None) -> frozenset:
        w = self.full_mask if within is None else checked_mask(self.n, within)
        return set_of(maximal_mask(self.up, w))

    # -- mails and connectivity -----------------------------------------

    def is_mail(self, members: Iterable[int]) -> bool:
        m = checked_mask(self.n, members)
        return m != 0 and self.lower_bound_mask(m) != 0

    def is_mail_connected(self, members: Iterable[int]) -> bool:
        m = checked_mask(self.n, members)
        if not m:
            return False
        comps = component_masks(self.mail_mates, m)
        return len(comps) == 1

    def mail_connected_components(self, members: Iterable[int]) -> list:
        """Partition into maximal mail-connected subsets, by least member."""
        m = checked_mask(self.n, members)
        return [set_of(c) for c in component_masks(self.mail_mates, m)]

    def is_totally_mail_disconnected(self, members: Iterable[int]) -> bool:
        """No two distinct members share a lower bound.  The empty set
        counts as TMD (it is the bottom of the exterior)."""
        m = checked_mask(self.n, members)
        for a in bits_of(m):
            if self.mail_mates[a] & m != 1 << a:
                return False
        return True

    def order_connected_components(self) -> list:
        """Components of the comparability graph, by least member."""
        adjacency = tuple(self.up[a] | self.down[a] for a in range(self.n))
        return [set_of(c) for c in component_masks(adjacency, self.full_mask)]

    # -- chainmail and lattice predicates --------------------------------

    def is_chainmail(self) -> bool:
        """Every mail has a join.  By the pair lemma (:func:`mail_pairs`) it
        is enough that every incomparable pair with a common lower bound
        has the upper bounds of some element."""
        rows = set(self.up)
        full = self.full_mask
        return all(ub in rows for _pair, ub in mail_pairs(self.up, self.down, full, full))

    def is_complete_lattice(self) -> bool:
        """Every subset has a join.  For a finite poset this reduces to a
        bottom element plus binary joins, each of them a row lookup (the
        row lemma of :attr:`up_index`).  Decided once per instance."""
        return self._complete_lattice

    @cached_attribute
    def _complete_lattice(self) -> bool:
        if self.bottom() is None:
            return False
        n, up, rows = self.n, self.up, self.up_index
        return all(up[a] & up[b] in rows for a in range(n) for b in range(a + 1, n))

    def is_distributive(self) -> bool:
        """Meet distributes over join; for finite lattices this is the frame
        condition."""
        if not self.is_complete_lattice():
            raise PreconditionError("distributivity is defined here for complete lattices")
        n, up, down, join_of, meet_of = self.n, self.up, self.down, self.up_index, self.down_index
        jt = [[join_of[up[a] & up[b]] for b in range(n)] for a in range(n)]
        mt = [[meet_of[down[a] & down[b]] for b in range(n)] for a in range(n)]
        for x in range(n):
            for y in range(n):
                for z in range(y, n):
                    if mt[x][jt[y][z]] != jt[mt[x][y]][mt[x][z]]:
                        return False
        return True

    # -- isomorphism -----------------------------------------------------

    @cached_attribute
    def canonical(self) -> canon.CanonResult:
        """Canonical key, labeling and automorphisms, searched once."""
        return canon.canonicalize(self.n, self.up, self.down)

    def canonical_key(self) -> bytes:
        """Deterministic fingerprint; equal for two posets iff they are
        order-isomorphic."""
        return self.canonical.key

    def canonical_form(self) -> "FinitePoset":
        """The canonically relabeled copy of this poset."""
        return FinitePoset(self.n, self.canonical.relabeled_up)

    def is_isomorphic(self, other: "FinitePoset") -> bool:
        return self.n == other.n and self.canonical_key() == other.canonical_key()

    def automorphism_orbits(self) -> list:
        """Orbits of the automorphism group, each as a frozenset, sorted by
        least member."""
        return sorted({frozenset(self.canonical.orbit(v)) for v in range(self.n)}, key=min)

    # -- JSON interchange -------------------------------------------------

    def to_json(self, connectivity: Optional[Iterable[int]] = None) -> dict:
        """The package's poset interchange object.  Reflexive pairs are
        omitted; the relation is emitted transitively closed.  Each member
        of ``connectivity`` must be an element (:func:`check_element`)."""
        pairs = []
        for a in range(self.n):
            for b in bits_of(self.up[a] & ~(1 << a)):
                pairs.append([a, b])
        obj = {"n": self.n, "leq": pairs}
        if connectivity is not None:
            members = list(connectivity)
            for x in members:
                check_element(self.n, x)
            obj["connectivity"] = sorted(members)
        return obj

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"), sort_keys=True)

    @staticmethod
    def from_json(obj: dict) -> "FinitePoset":
        """Parse the interchange object.  ``closure: "reflexive-transitive"``
        permits a cover/Hasse list; without the field the relation must
        already be transitively closed (validate() reports if it is not),
        and any other value of the field is refused."""
        if not isinstance(obj, dict):
            raise FormatError("poset JSON must be an object")
        n = obj.get("n")
        if not is_integer(n):
            raise FormatError('poset JSON needs an integer field "n"')
        pairs = obj.get("leq", [])
        if not isinstance(pairs, list):
            raise FormatError('"leq" must be a list of [a, b] pairs')
        cap = max_n()
        if n > cap:
            raise GuardExceeded(f"poset size {n} exceeds cap {cap} (set CHM_MAX_N to raise)")
        close = "closure" in obj
        if close and obj["closure"] != "reflexive-transitive":
            raise FormatError(f'"closure" must be "reflexive-transitive" when present, got {obj["closure"]!r}')
        for p in pairs:
            if not (isinstance(p, (list, tuple)) and len(p) == 2):
                raise FormatError(f"bad leq pair: {p!r}")
        return FinitePoset.from_leq_pairs(n, pairs, close=close)


def connectivity_from_json(obj: dict) -> tuple:
    """(poset, connectivity set) from an interchange object that carries the
    optional "connectivity" field."""
    poset = FinitePoset.from_json(obj)
    raw = obj.get("connectivity")
    if raw is None:
        raise FormatError('missing "connectivity" field')
    if not isinstance(raw, list):
        raise FormatError('"connectivity" must be a list of elements')
    for x in raw:
        if not is_integer(x):
            raise FormatError(f"connectivity element {x!r} is not an integer")
        if not 0 <= x < poset.n:
            raise FormatError(f"connectivity element {x} out of range")
    return poset, frozenset(raw)
