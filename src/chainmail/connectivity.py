"""Connectivity pairs (L, C) over complete lattices.

A pair consists of a complete lattice L and a distinguished subset C of
"connected" elements.  Nothing is assumed about C at construction time;
the predicates here classify it:

* C is a *preconnectivity* when it is a chainmail under the induced order,
  and a *connectivity* when it is a subchainmail of L (closed in L under
  joins of its mails).
* A connectivity is exactly the situation in which the join map from the
  exterior D(C) to L has a right Galois adjoint, namely the component map
  x -> C(x) = maximal connected elements below x.
* The CL condition ladder (bottom membership, mail-join closure and its
  interval form, well-foundedness, saturation, separation) and the E
  condition ladder on single elements drive the taxonomy classifier.

D(C) always means: totally mail-disconnected subsets of C *relative to the
induced order on C* (a common lower bound must itself be connected), with
the componentwise order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterable, List, Optional, Union

from .config import DEFAULT_MAX_TMD_SETS
from .errors import GuardExceeded, PreconditionError
from .poset import (
    FinitePoset,
    bits_of,
    check_element,
    checked_mask,
    component_masks,
    first_mail,
    mail_mates,
    mask_of,
    maximal_mask,
    set_of,
    submasks,
    tmd_masks,
)


@dataclass(frozen=True)
class ConnectivityPair:
    """A complete lattice with a distinguished subset of its elements."""

    lattice: FinitePoset
    connected: frozenset
    cmask: int = field(init=False, repr=False, compare=False)   # the mask of ``connected``

    def __post_init__(self):
        if not self.lattice.is_complete_lattice():
            raise PreconditionError("the carrier of a connectivity pair must be a complete lattice")
        connected = tuple(self.connected)
        object.__setattr__(self, "cmask", checked_mask(self.lattice.n, connected))
        object.__setattr__(self, "connected", frozenset(connected))

    def bottom(self) -> int:
        return self.lattice.bottom()


# ---------------------------------------------------------------------------
# components, kernel, subchainmail, adjunction
# ---------------------------------------------------------------------------

def components(pair: ConnectivityPair, x: int) -> List[int]:
    """Maximal connected elements below x, ascending."""
    check_element(pair.lattice.n, x)
    return list(bits_of(_component_mask(pair, x)))


def _component_mask(pair: ConnectivityPair, x: int) -> int:
    lat = pair.lattice
    return maximal_mask(lat.up, pair.cmask & lat.down[x])


def kernel(pair: ConnectivityPair, x: int) -> int:
    """Join of the components of x; the interior when C is a topology.
    The join is one row lookup (the row lemma of ``FinitePoset.up_index``)."""
    lat = pair.lattice
    check_element(lat.n, x)
    return lat.up_index[lat.upper_bound_mask(_component_mask(pair, x))]


def is_subchainmail_of(p: FinitePoset, members: Iterable[int]) -> bool:
    """Closure of ``members`` in ``p`` under joins of its mails.

    A mail of the subposet is a subset with a common lower bound inside
    ``members``; as always it suffices to look at antichains, whose upper
    bounds agree with those of any mail reducing to them.  A mail with no
    join in ``p`` imposes no constraint.
    """
    violation = _subchainmail_violation(p, checked_mask(p.n, members))
    return violation is None


def _subchainmail_violation(p: FinitePoset, cmask: int) -> Optional[int]:
    """First (lex) antichain in C with a connected lower bound whose join in
    p exists but escapes C, as a bitmask."""
    return first_mail(p.n, p.up, p.down, cmask, cmask, _join_escapes(p.up, cmask))


def _join_escapes(up, cmask: int):
    """``bad`` for :func:`first_mail`: the join exists and lies outside C,
    that is, the upper bounds are the up-set of an element outside C."""
    return {row for j, row in enumerate(up) if not cmask >> j & 1}.__contains__


def _dc_tables(pair: ConnectivityPair) -> tuple:
    """(masks, joins, doms): D(C) as :func:`~chainmail.poset.tmd_masks`
    lists it, each set's join, and each set's down-set, so that S <= T
    componentwise exactly when ``S & ~dom(T) == 0``.

    TMD is taken inside the induced order on C: two connected elements are
    mail-mates only via a *connected* common lower bound.  Each join is one
    lookup of the set's upper-bound mask (the row lemma of
    ``FinitePoset.up_index``).
    """
    lat = pair.lattice
    masks, ubs, doms = tmd_masks(lat, pair.cmask)
    join_of = lat.up_index
    return masks, tuple(join_of[ub] for ub in ubs), doms


def _right_adjoint_table(lat: FinitePoset, fam: tuple, joins: tuple, doms: tuple):
    """For each x, the greatest TMD set whose join sits below x (as an
    ambient mask), or None when some x has no greatest such set.  The sets
    are D(C) as :func:`_dc_tables` returns it.

    Built from first principles: the join map is monotone, so it has a
    right adjoint exactly when each of these greatest elements exists.
    Nothing here consults the component map, which keeps the equivalence
    with ``is_subchainmail_of`` and the classifier's cross-view assertion
    honest.

    A set T is below S exactly when T lies inside dom(S), so S is above
    every set with join below x exactly when dom(S) holds the union of
    their members.  One pass per x keeps, in ``top``, the last such set
    that was not below the one kept before.  Once the pass meets the
    greatest set G it keeps G: either G replaces the kept set, or G is
    below it and so equal to it (TMD sets are antichains, on which the
    order is antisymmetric); every later set is below G.  So the greatest
    set exists exactly when the kept one's down-set holds the union.  The
    empty set comes first with join the bottom, and starts the pass.
    """
    table = []
    for x in range(lat.n):
        below = lat.down[x]
        members = top = top_dom = 0
        for m, j, d in zip(fam, joins, doms):
            if below >> j & 1:
                members |= m
                if m & ~top_dom:
                    top, top_dom = m, d
        if members & ~top_dom:
            return None
        table.append(top)
    return table


def galois_adjunction_holds(pair: ConnectivityPair) -> bool:
    """Whether the join map D(C) -> L has a right Galois adjoint."""
    return _right_adjoint_table(pair.lattice, *_dc_tables(pair)) is not None


# ---------------------------------------------------------------------------
# the CL conditions
# ---------------------------------------------------------------------------

def cl0(pair: ConnectivityPair) -> bool:
    """The bottom element is connected."""
    return pair.bottom() in pair.connected


def cl1(pair: ConnectivityPair) -> bool:
    """Joins of connected families with a non-zero lower bound stay
    connected."""
    return _cl1_violation(pair) is None


def _cl1_violation(pair: ConnectivityPair) -> Optional[int]:
    """First (lex) antichain in C with a lower bound above bottom whose join
    leaves C."""
    lat = pair.lattice
    nonzero = lat.full_mask & ~(1 << lat.bottom())
    cmask = pair.cmask
    return first_mail(lat.n, lat.up, lat.down, cmask, nonzero, _join_escapes(lat.up, cmask))


def cl1_prime(pair: ConnectivityPair) -> bool:
    """Interval form: every non-empty slice of C between x != 0 and y has a
    largest element."""
    return _cl1_prime_violation(pair) is None


def _cl1_prime_violation(pair: ConnectivityPair) -> Optional[tuple]:
    """First (x, y) whose non-empty slice of C has no largest element.  In
    a lattice the slice has one exactly when its join lies in it."""
    lat = pair.lattice
    cmask, join_of = pair.cmask, lat.up_index
    bot = lat.bottom()
    for x in range(lat.n):
        if x == bot:
            continue
        for y in bits_of(lat.up[x]):
            slice_mask = cmask & lat.up[x] & lat.down[y]
            if slice_mask and not slice_mask >> join_of[lat.upper_bound_mask(slice_mask)] & 1:
                return (x, y)
    return None


def cl1_half(pair: ConnectivityPair) -> bool:
    """Every non-zero element has a connected element below it."""
    return _cl1_half_violation(pair) is None


def _cl1_half_violation(pair: ConnectivityPair) -> Optional[int]:
    lat = pair.lattice
    cmask = pair.cmask
    bot = lat.bottom()
    for a in range(lat.n):
        if a != bot and not cmask & lat.down[a]:
            return a
    return None


def cl2(pair: ConnectivityPair) -> bool:
    """Every element is a join of connected elements."""
    return _cl2_violation(pair) is None


def _cl2_violation(pair: ConnectivityPair) -> Optional[int]:
    lat, cmask = pair.lattice, pair.cmask
    return next((a for a in range(lat.n) if not _joins_connected(lat, cmask, a)), None)


def _joins_connected(lat: FinitePoset, cmask: int, x: int) -> bool:
    """x is the join of the members of ``cmask`` below it.  This is also
    membership in the join closure of ``cmask``: if x is the join of some
    S inside it, then S lies inside ``cmask & down[x]``, whose join lies
    between that of S and x."""
    return lat.upper_bound_mask(cmask & lat.down[x]) == lat.up[x]


def cl3(pair: ConnectivityPair) -> bool:
    """Every TMD set in C is the component set of its own join."""
    fam, joins, _doms = _dc_tables(pair)
    return _cl3_violation(pair, fam, joins) is None


def _cl3_violation(pair: ConnectivityPair, fam: tuple, joins: tuple) -> Optional[frozenset]:
    for m, j in zip(fam, joins):
        if _component_mask(pair, j) != m:
            return set_of(m)
    return None


def is_separated(pair: ConnectivityPair) -> bool:
    """The component map is a left inverse of the join map."""
    fam, joins, _doms = _require_adjunction(pair)
    return _cl3_violation(pair, fam, joins) is None


def is_absolute(pair: ConnectivityPair) -> bool:
    """The connectivity adjunction is an order isomorphism D(C) -> L."""
    fam, joins, _doms = _require_adjunction(pair)
    return _absolute_raw(pair.lattice, fam, joins)


def _absolute_raw(lat: FinitePoset, fam: tuple, joins: tuple) -> bool:
    """Whether the join map f of D(C) (as :func:`_dc_tables` gives it) is an
    order isomorphism onto L, for a pair whose f has a right adjoint g:
    exactly when f is a bijection.  In a Galois connection f g f = f, so an
    injective f has g f = id, and then f(S) <= f(T) gives S <= g f(T) = T
    by the adjunction: f is an order embedding, and a bijective f an order
    isomorphism.  The same lemma gives g f = id iff f is injective (CL3)
    and f g = id iff f is surjective (CL2), which :func:`classify` checks
    against this verdict.  Without the adjunction the count alone does not
    decide it."""
    return len(fam) == lat.n == len(set(joins))


def _require_adjunction(pair: ConnectivityPair) -> tuple:
    """:func:`_dc_tables` of a pair whose join map has a right adjoint."""
    dc = _dc_tables(pair)
    if _right_adjoint_table(pair.lattice, *dc) is None:
        raise PreconditionError("the pair does not admit the connectivity adjunction")
    return dc


# ---------------------------------------------------------------------------
# the E conditions on single lattice elements
# ---------------------------------------------------------------------------

def _checked_lattice(pair_or_lattice: Union[ConnectivityPair, FinitePoset], a: int) -> FinitePoset:
    """The lattice of the argument, once ``a`` is one of its elements."""
    lat = pair_or_lattice.lattice if isinstance(pair_or_lattice, ConnectivityPair) else pair_or_lattice
    check_element(lat.n, a)
    return lat


def _e1_e2_masks(lat: FinitePoset) -> tuple:
    """(E1 mask, E2 mask): the elements of L+ that no disjoint pair refutes.
    A pair {x, y} of L+ with x ^ y = 0 and join j refutes E1 at every
    element below j and below neither, ``down[j] & ~down[x] & ~down[y]``,
    and E2 at j.  A pair with the bottom, or x = y, is left out: its join
    is one of its members, so it refutes neither.  A poset without a
    bottom has no L+, and one where such a pair has no join is no lattice
    either."""
    up, down = lat.up, lat.down
    bot = lat.bottom()
    if bot is None:
        raise PreconditionError("E conditions are defined over complete lattices")
    botbit = 1 << bot
    l_plus = lat.full_mask & ~botbit
    e1_mask = e2_mask = l_plus
    for x in bits_of(l_plus):
        for y in bits_of(l_plus & ~((2 << x) - 1)):
            if down[x] & down[y] == botbit:
                j = lat.up_index.get(up[x] & up[y])
                if j is None:
                    raise PreconditionError("E conditions are defined over complete lattices")
                e1_mask &= ~(down[j] & ~down[x] & ~down[y])
                e2_mask &= ~(1 << j)
    return e1_mask, e2_mask


def e1(pair_or_lattice, a: int) -> bool:
    """a != 0, and a below a disjoint join x v y forces a below x or y."""
    e1_mask, _e2_mask = _e1_e2_masks(_checked_lattice(pair_or_lattice, a))
    return bool(e1_mask >> a & 1)


def e2(pair_or_lattice, a: int) -> bool:
    """a != 0, and a = x v y with x ^ y = 0 forces x = a or y = a."""
    _e1_mask, e2_mask = _e1_e2_masks(_checked_lattice(pair_or_lattice, a))
    return bool(e2_mask >> a & 1)


def e3(pair_or_lattice, a: int) -> bool:
    """a is the join of a TMD subset of L+ only when a belongs to it."""
    return a in _e3_elements(_checked_lattice(pair_or_lattice, a))


def _e3_elements(lat: FinitePoset) -> frozenset:
    """The elements satisfying E3: a falls at a disjoint family S of L+
    when join(S) = a and a is not in S."""
    up, down = lat.up, lat.down
    return set_of(_l_plus_survivors(lat, lambda s, dom, lo, hi: up[lo] & down[hi] & ~s))


def e4(pair_or_lattice, a: int) -> bool:
    """a below the join of a TMD subset of L+ is below one of its members;
    the absolutely connected elements are those satisfying this."""
    return a in absolutely_connected_elements(_checked_lattice(pair_or_lattice, a))


@lru_cache(maxsize=256)
def absolutely_connected_elements(lat: FinitePoset) -> frozenset:
    """The elements satisfying E4: a falls at a disjoint family S of L+
    when a <= join(S) and a is below no member, that is, not in dom(S)."""
    down = lat.down
    return set_of(_l_plus_survivors(lat, lambda s, dom, lo, hi: down[hi] & ~dom))


def _l_plus_survivors(lat: FinitePoset, at_risk, limit: int = DEFAULT_MAX_TMD_SETS) -> int:
    """The elements that no disjoint family of L+ refutes, as a mask.

    A disjoint family is a subset S of L+ (L without its bottom) whose
    members pairwise meet in the bottom, the empty family included: the
    TMD subsets of L+.  dom(S) is the union of its members' down-rows.
    ``at_risk(s, dom, lo, hi)``, for S with mask ``s`` and dom(S) =
    ``dom``, holds every element refuted by some family S' with S <= S',
    dom(S) <= dom(S') and lo <= join(S') <= hi; at lo = hi = join(S) it
    is exactly what S itself refutes.

    The walk is the one of :func:`poset.tmd_masks`: members are added
    in increasing order, and S carries its candidates R, the members of
    L+ above its largest member that meet each member of S in the bottom.
    Every family S' the walk reaches from S (S included) has S <= S' <=
    S | R, so join(S) <= join(S') <= join(S | R) and dom(S) <= dom(S').
    When ``at_risk(s, dom(S), join(S), join(S | R))`` holds no element
    still unrefuted, nothing reached from S can refute one, and the walk
    does not enter S; for the same reason it stops taking S's children
    once that mask is spent.  A skipped family refutes nothing new, so
    the result is the full mask less what the entered families refute.
    Each join is one lookup of an upper-bound mask (the row lemma of
    ``FinitePoset.up_index``).

    Each entered family counts against ``limit``; passing it means L+ has
    more than ``limit`` disjoint families, and the walk raises
    :class:`GuardExceeded` with the message of ``tmd_masks``.
    """
    if not lat.is_complete_lattice():
        raise PreconditionError("E conditions are defined over complete lattices")
    up, down = lat.up, lat.down
    l_plus = lat.full_mask & ~(1 << lat.bottom())
    mates = mail_mates(lat.n, up, down, l_plus)
    join_of = lat.up_index
    alive = lat.full_mask
    entered = 0

    def walk(s: int, ub: int, dom: int, cand: int) -> None:
        nonlocal alive, entered
        top = ub
        for r in bits_of(cand):
            top &= up[r]
        lo = join_of[ub]
        risk = at_risk(s, dom, lo, join_of[top])
        if not alive & risk:
            return
        entered += 1
        if entered > limit:
            raise GuardExceeded(f"TMD family exceeds {limit} sets; raise the limit explicitly")
        alive &= ~at_risk(s, dom, lo, lo)
        while cand and alive & risk:
            low = cand & -cand
            cand ^= low
            b = low.bit_length() - 1
            walk(s | low, ub & up[b], dom | down[b], cand & ~mates[b])

    walk(0, lat.full_mask, 0, l_plus)
    # walk refers to itself through its closure; unbinding it breaks that
    # cycle, as in tmd_masks
    del walk
    return alive


def frame_equivalence_check(lat: FinitePoset) -> bool:
    """On a distributive (finite frame) lattice the four E conditions must
    agree pointwise; this evaluates all four independently and compares."""
    if not lat.is_distributive():
        raise PreconditionError("frame equivalence is asserted for distributive lattices only")
    e1_mask, e2_mask = _e1_e2_masks(lat)
    e3_mask = mask_of(_e3_elements(lat))
    return e1_mask == e2_mask == e3_mask == mask_of(absolutely_connected_elements(lat))


# ---------------------------------------------------------------------------
# taxonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaxonomyReport:
    """Raw condition verdicts, taxonomy class verdicts, the adjoint-map
    view, and a witness per failed raw condition."""

    cl0: bool
    cl1: bool
    cl1_prime: bool
    cl1_half: bool
    cl2: bool
    cl3: bool
    preconnectivity: bool
    connectivity: bool
    kernel: bool
    typical: bool
    well_founded: bool
    saturated: bool
    separated: bool
    serra: bool
    absolute: bool
    degenerate: bool
    absolutely_connected: tuple
    connected_equals_absolutely_connected: bool
    adjoint_view: Optional[dict]
    witnesses: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["absolutely_connected"] = list(self.absolutely_connected)
        out["witnesses"] = dict(sorted(self.witnesses.items()))
        return out


def _preconnectivity_violation(pair: ConnectivityPair) -> Optional[frozenset]:
    """First mail of the induced order on C with no join in that order.

    This is one :func:`first_mail` walk of L.  Antichains of C are the
    same in L and in the induced order, and the common lower bound must
    lie in C, so members and lows are both C.  The upper bounds in C of a
    set with upper-bound mask ub are ``ub & C``; they have a least element
    exactly when they are ``up[c] & C`` for some c in C (the row lemma of
    ``FinitePoset.up_index`` in the induced order), and an empty set of
    upper bounds has none.
    C's sorted elements keep their order as indices of L, so the lex-first
    witness is the induced order's.  Preconnectivity, connectivity and CL1
    are thus one walker call each.
    """
    lat = pair.lattice
    cmask = pair.cmask
    joins = {lat.up[c] & cmask for c in bits_of(cmask)}
    hit = first_mail(lat.n, lat.up, lat.down, cmask, cmask, lambda ub: ub & cmask not in joins)
    return None if hit is None else set_of(hit)


def classify(pair: ConnectivityPair) -> TaxonomyReport:
    """Evaluate every raw condition and taxonomy class.

    Derived classes: connectivity = subchainmail of L; kernel =
    connectivity + CL0; typical = CL1 without CL0; well-founded =
    connectivity + CL1.5; saturated = connectivity + CL2; Serra = typical +
    CL2; separated = connectivity + CL3; absolute = the adjunction is an
    isomorphism; degenerate = C is all of L.  The adjoint-map view is
    computed independently and must agree with the raw conditions.
    """
    lat = pair.lattice
    fam, joins, _doms = dc = _dc_tables(pair)
    cl1p = _cl1_prime_violation(pair)
    cl3 = _cl3_violation(pair, fam, joins)
    pre = _preconnectivity_violation(pair)
    # each raw condition's JSON-ready witness, or None when it holds; the
    # keys are the report's first eight fields
    found = {
        "cl0": None if cl0(pair) else lat.bottom(),
        "cl1": _mask_list(_cl1_violation(pair)),
        "cl1_prime": None if cl1p is None else list(cl1p),
        "cl1_half": _cl1_half_violation(pair),
        "cl2": _cl2_violation(pair),
        "cl3": None if cl3 is None else sorted(cl3),
        "preconnectivity": None if pre is None else sorted(pre),
        "connectivity": _mask_list(_subchainmail_violation(lat, pair.cmask)),
    }
    witnesses = {k: w for k, w in found.items() if w is not None}
    has = {k: w is None for k, w in found.items()}
    is_conn = has["connectivity"]
    table = _right_adjoint_table(lat, *dc)
    adjunction = table is not None

    if adjunction != is_conn:
        raise RuntimeError("internal inconsistency: adjunction existence vs subchainmail closure")

    absolute = adjunction and _absolute_raw(lat, fam, joins)
    e4_set = absolutely_connected_elements(lat)

    adjoint_view = None
    if is_conn:
        # the adjoint map comes from the greatest-element construction, so
        # these four verdicts come from a different route than the CL
        # conditions (which use membership, joins, and the component map)
        bot = lat.bottom()
        preserves_bottom = table[bot] == 0
        reflects_bottom = all(table[x] != 0 for x in range(lat.n) if x != bot)
        right_inverse = all(lat.upper_bound_mask(table[x]) == lat.up[x] for x in range(lat.n))
        left_inverse = all(table[j] == m for m, j in zip(fam, joins))
        adjoint_view = {
            "right_adjoint_preserves_bottom": preserves_bottom,
            "right_adjoint_reflects_bottom": reflects_bottom,
            "right_adjoint_is_right_inverse": right_inverse,
            "right_adjoint_is_left_inverse": left_inverse,
        }
        consistent = (
            preserves_bottom == (not has["cl0"])
            and reflects_bottom == has["cl1_half"]
            and right_inverse == has["cl2"]
            and left_inverse == has["cl3"]
        )
        if not consistent:
            raise RuntimeError("internal inconsistency: adjoint view disagrees with CL conditions")
        if any(_component_mask(pair, x) != table[x] for x in range(lat.n)):
            raise RuntimeError("internal inconsistency: right adjoint is not the component map")

    report = TaxonomyReport(
        **has,
        kernel=is_conn and has["cl0"],
        typical=has["cl1"] and not has["cl0"],
        well_founded=is_conn and has["cl1_half"],
        saturated=is_conn and has["cl2"],
        separated=is_conn and has["cl3"],
        serra=has["cl1"] and not has["cl0"] and has["cl2"],
        absolute=absolute,
        degenerate=pair.connected == frozenset(range(lat.n)),
        absolutely_connected=tuple(sorted(e4_set)),
        connected_equals_absolutely_connected=pair.connected == e4_set,
        adjoint_view=adjoint_view,
        witnesses=witnesses,
    )
    if has["cl1"] != has["cl1_prime"]:
        raise RuntimeError("internal inconsistency: the two mail-join closure forms disagree")
    if report.absolute != (report.separated and report.saturated):
        raise RuntimeError("internal inconsistency: absolute is not separated + saturated")
    return report


def _mask_list(mask: Optional[int]) -> Optional[list]:
    return None if mask is None else list(bits_of(mask))


def report_to_json_text(report: TaxonomyReport, pretty: bool = False) -> str:
    obj = report.to_json()
    if pretty:
        lines = []
        width = max(len(k) for k in obj)
        for k, v in obj.items():
            if k in ("witnesses", "adjoint_view"):
                lines.append(f"{k:<{width}}  {json.dumps(v, sort_keys=True)}")
            else:
                lines.append(f"{k:<{width}}  {v}")
        return "\n".join(lines)
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# join closure
# ---------------------------------------------------------------------------

def sigma_members(pair: ConnectivityPair) -> list:
    """Ambient elements of the join closure of C (all joins of subsets of C,
    the empty join included), ascending."""
    lat, cmask = pair.lattice, pair.cmask
    return [x for x in range(lat.n) if _joins_connected(lat, cmask, x)]


def sigma_closure(pair: ConnectivityPair) -> ConnectivityPair:
    """The pair (joins of subsets of C, C), re-indexed to the closure."""
    members = sigma_members(pair)
    index = {e: i for i, e in enumerate(members)}
    sub = FinitePoset.induced(pair.lattice, members)
    return ConnectivityPair(sub, frozenset(index[c] for c in pair.connected))


# ---------------------------------------------------------------------------
# sinks, orthogonality, multicoreflectivity, local joins
# ---------------------------------------------------------------------------

def is_orthogonal(p: FinitePoset, c: int, x: int, sink_members: Iterable[int]) -> bool:
    """c <= x exactly when c is below a unique member of the sink."""
    check_element(p.n, c)
    check_element(p.n, x)
    bmask = checked_mask(p.n, sink_members)
    if bmask & ~p.down[x]:
        raise PreconditionError("sink members must lie below the sink vertex")
    return _orthogonal(p, c, x, bmask)


def _orthogonal(p: FinitePoset, c: int, x: int, bmask: int) -> bool:
    """c <= x exactly when c is below a unique member of ``bmask``."""
    return (p.up[c] >> x & 1) == ((p.up[c] & bmask).bit_count() == 1)


def is_multicoreflective(p: FinitePoset, members: Iterable[int]) -> bool:
    """Every element admits a sink into C orthogonal to all of C.

    If any sink (x, B) with B inside C works, B is forced to be the maximal
    elements of C below x, so only that candidate needs testing.
    """
    return _multicoreflective(p, checked_mask(p.n, members))


def _multicoreflective(p: FinitePoset, cmask: int) -> bool:
    for x in range(p.n):
        bmask = maximal_mask(p.up, cmask & p.down[x])
        if not all(_orthogonal(p, c, x, bmask) for c in bits_of(cmask)):
            return False
    return True


def local_joins(p: FinitePoset, members: Iterable[int]) -> list:
    """All local joins of the set: upper bounds x that are the join of the
    set inside every principal down-set containing x."""
    xmask = checked_mask(p.n, members)
    return list(bits_of(_local_join_mask(p, xmask, mail_mates(p.n, p.down, p.up, p.full_mask))))


def _local_join_mask(p: FinitePoset, xmask: int, comates: tuple) -> int:
    """The local joins of ``xmask`` as a mask.  ``comates`` is
    ``mail_mates(n, down, up, full)``, the dual order's mail-mates: row x
    holds the u that share an upper bound w with x.  An upper bound x is
    the join inside every down[w] holding it exactly when it lies below
    each upper bound in ``comates[x]``."""
    ub = p.upper_bound_mask(xmask)
    return mask_of(x for x in bits_of(ub) if not ub & comates[x] & ~p.up[x])


def local_join(p: FinitePoset, members: Iterable[int]) -> Optional[int]:
    """Smallest-index local join, or None.  Unique and equal to the join
    whenever the poset has a top element."""
    found = local_joins(p, members)
    return found[0] if found else None


@dataclass(frozen=True)
class SinkClosureReport:
    multicoreflective: bool          # (i)
    orthogonality_closed: bool       # (ii)
    local_join_closed: bool          # (iii)
    chain_holds: bool                # (i) implies (ii) implies (iii)
    local_join_premise: bool         # bounded connected subsets have local joins
    equivalent: Optional[bool]       # all three agree; only asserted under the premise


def _order_connected_subsets(p: FinitePoset, within: int) -> Iterable[int]:
    comparability = tuple(p.up[a] | p.down[a] for a in range(p.n))
    if within.bit_count() > 20:
        raise GuardExceeded("too many subsets for the sink-closure checks")
    for m in submasks(within):
        if len(component_masks(comparability, m)) == 1:
            yield m


def borger_implication_check(p: FinitePoset, members: Iterable[int]) -> SinkClosureReport:
    """Evaluate the three sink-based closure statements and their chain.

    (i) C is multicoreflective; (ii) anything orthogonal to every sink that
    is orthogonal to all of C already lies in C; (iii) C is closed under
    local joins of its order-connected subsets.  When every order-connected
    subset with an upper bound has a local join the three are equivalent.
    """
    cmask = checked_mask(p.n, members)

    cond_i = _multicoreflective(p, cmask)

    # sinks orthogonal to every element of C
    total = sum(1 << p.down[x].bit_count() for x in range(p.n))
    if total > (1 << 20):
        raise GuardExceeded("too many sinks for the orthogonality-closure check")
    good_sinks = []
    for x in range(p.n):
        for bmask in submasks(p.down[x]):
            if all(_orthogonal(p, c, x, bmask) for c in bits_of(cmask)):
                good_sinks.append((x, bmask))
    cond_ii = True
    for a in range(p.n):
        if cmask >> a & 1:
            continue
        if all(_orthogonal(p, a, x, bmask) for x, bmask in good_sinks):
            cond_ii = False
            break

    comates = mail_mates(p.n, p.down, p.up, p.full_mask)
    cond_iii = all(not _local_join_mask(p, m, comates) & ~cmask
                   for m in _order_connected_subsets(p, cmask))
    premise = all(not p.upper_bound_mask(m) or _local_join_mask(p, m, comates)
                  for m in _order_connected_subsets(p, p.full_mask))

    chain = (not cond_i or cond_ii) and (not cond_ii or cond_iii)
    equivalent = (cond_i == cond_ii == cond_iii) if premise else None
    return SinkClosureReport(
        multicoreflective=cond_i,
        orthogonality_closed=cond_ii,
        local_join_closed=cond_iii,
        chain_holds=chain,
        local_join_premise=premise,
        equivalent=equivalent,
    )
