"""The exterior of a poset: its totally mail-disconnected families.

For a poset G the exterior is the poset of all TMD subsets of G (the empty
set included), ordered componentwise: S1 <= S2 when each member of S1 is
below some member of S2.  The exterior is a complete lattice exactly when
G is a chainmail, and is then order-isomorphic to the poset of down-closed
subchainmails of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .config import DEFAULT_MAX_EXTERIOR_SETS, DEFAULT_MAX_TMD_SETS
from .connectivity import ConnectivityPair
from .errors import FormatError, GuardExceeded, PreconditionError
from .poset import (FinitePoset, bits_of, checked_mask, component_masks, downset_masks, inclusion_rows,
                    is_integer, joins_inside, mask_of, pair_joins, set_of, tmd_masks)


def tmd_set_masks(p: FinitePoset, limit: int = DEFAULT_MAX_TMD_SETS) -> tuple:
    """All totally mail-disconnected subsets of p, as the masks that
    :func:`~chainmail.poset.tmd_masks` lists."""
    return tmd_masks(p, p.full_mask, limit)[0]


@dataclass(frozen=True)
class TmdFamily:
    """The exterior of ``base``: every TMD set with the componentwise order,
    materialized as a FinitePoset so the whole poset toolkit applies."""

    base: FinitePoset
    masks: tuple         # bitmasks, in the deterministic enumeration order
    order: FinitePoset   # order.leq(i, j) iff sets[i] <= sets[j] componentwise

    @cached_property
    def sets(self) -> tuple:
        """The TMD sets as frozensets, in the order of ``masks``; built on
        first read."""
        return tuple(set_of(m) for m in self.masks)

    def index_of(self, members: Iterable[int]) -> int:
        members = tuple(members)
        try:
            return self.masks.index(checked_mask(self.base.n, members))
        except IndexError as exc:   # a member that is not an element
            raise KeyError(str(exc)) from None
        except ValueError:          # no such set
            raise KeyError(f"{sorted(set(members))} is not a TMD set of the base poset") from None

    def singleton_indices(self) -> frozenset:
        return frozenset(i for i, m in enumerate(self.masks) if m.bit_count() == 1)


def exterior(p: FinitePoset, limit: int = DEFAULT_MAX_EXTERIOR_SETS) -> TmdFamily:
    masks, _ubs, doms = tmd_masks(p, p.full_mask, limit)
    order = FinitePoset(len(masks), inclusion_rows(masks, doms))
    return TmdFamily(base=p, masks=masks, order=order)


def exterior_is_complete(p: FinitePoset, limit: int = DEFAULT_MAX_EXTERIOR_SETS) -> bool:
    """Whether the exterior is a complete lattice.  Coincides with
    ``p.is_chainmail()`` on every poset; the equality is an invariant the
    test suite sweeps, not something this function assumes."""
    return exterior(p, limit).order.is_complete_lattice()


# ---------------------------------------------------------------------------
# down-closed subchainmails and the reconstruction isomorphism
# ---------------------------------------------------------------------------

def _require_chainmail(p: FinitePoset) -> None:
    if not p.is_chainmail():
        raise PreconditionError("operation requires a chainmail")


def downclosed_subchainmails(p: FinitePoset) -> list:
    """All down-closed subsets closed under joins of their mails, as
    frozensets in lexicographic order.

    For a down-closed set the lower bounds of any subset already lie inside
    it, so its mails are exactly the mails of the ambient poset it contains.
    By the pair lemma (:func:`~chainmail.poset.mail_pairs`) on the set,
    closure reduces to: every ambient two-element mail inside the set has
    its join inside the set, which is :func:`~chainmail.poset.joins_inside`.
    """
    _require_chainmail(p)
    if p.n > 20:
        raise GuardExceeded("down-set enumeration is capped at 2^20 subsets")
    joins = pair_joins(p.up, p.down)
    out = [set_of(x) for x in downset_masks(p.n, p.down) if joins_inside(x, joins)]
    out.sort(key=sorted)
    return out


def tmd_to_downset(p: FinitePoset, members: Iterable[int]) -> frozenset:
    """The down-set of a TMD set; one direction of the exterior
    isomorphism."""
    _require_chainmail(p)
    members = tuple(members)
    if not p.is_totally_mail_disconnected(members):
        raise PreconditionError("input set is not totally mail-disconnected")
    below = 0
    for a in members:
        below |= p.down[a]
    return set_of(below)


def downset_to_tmd(p: FinitePoset, members: Iterable[int]) -> frozenset:
    """Joins of the maximal mail-connected subsets of a down-closed
    subchainmail; the inverse direction of the exterior isomorphism.  A
    set that is not down-closed, or not closed under the joins of its
    mails, is refused."""
    _require_chainmail(p)
    x = checked_mask(p.n, members)
    if any(p.down[a] & ~x for a in bits_of(x)):
        raise PreconditionError("input is not a down-closed subchainmail: an element below a member escapes it")
    joins = []
    for comp in component_masks(p.mail_mates, x):
        j = p.up_index.get(p.upper_bound_mask(comp))
        if j is None or not x >> j & 1:
            raise PreconditionError(
                "input is not a down-closed subchainmail: a component join escapes it"
            )
        joins.append(j)
    return frozenset(joins)


def inclusion_poset(sets: Sequence[frozenset]) -> FinitePoset:
    """The subset-inclusion order on a family of sets of elements, in the
    given order."""
    for x in (x for s in sets for x in s):
        if not (is_integer(x) and x >= 0):
            raise FormatError(f"set member {x} out of range")
    masks = [mask_of(s) for s in sets]
    return FinitePoset(len(masks), inclusion_rows(masks, masks))


def exterior_as_absolute(p: FinitePoset, limit: int = DEFAULT_MAX_EXTERIOR_SETS) -> ConnectivityPair:
    """The exterior paired with its singleton sets as the connectivity.

    The singletons are exactly the absolutely connected elements of the
    exterior and carry an induced order isomorphic to the base chainmail;
    both facts are swept as invariants in the tests rather than recomputed
    here.
    """
    _require_chainmail(p)
    family = exterior(p, limit)
    return ConnectivityPair(family.order, family.singleton_indices())
