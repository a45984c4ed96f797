"""Canonical labeling of finite posets.

Partition refinement (on per-cell counts of strict predecessors and
successors, iterated to a fixpoint) followed by backtracking over the
coarsest stable partition.  The canonical form is the lexicographically
least relation encoding over all labelings compatible with the stable
partition; automorphisms discovered as equal-encoding leaves prune the
search and yield the orbit partition needed by the enumerator.

Correctness rests on two standard facts: the refined partition is an
isomorphism invariant, and pruning a branch by a known automorphism only
removes encodings that are produced elsewhere in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class CanonResult:
    key: bytes
    perm: tuple            # perm[i] = original element placed at canonical position i
    relabeled_up: tuple    # up-rows of the canonical copy
    _parent: list = field(default_factory=list, repr=False)

    def orbit_of(self, v: int) -> int:
        return _find(self._parent, v)

    def same_orbit(self, a: int, b: int) -> bool:
        return self.orbit_of(a) == self.orbit_of(b)


def _find(parent: list, v: int) -> int:
    """Union-find root of v, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _refine(n: int, up: Sequence[int], down: Sequence[int], cells: list) -> list:
    """Equitable refinement of an ordered partition; split fragments are
    ordered by signature, which keeps the result isomorphism-invariant."""
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                dv = down[v]
                uv = up[v]
                sig = tuple(
                    ((dv & m).bit_count(), (uv & m).bit_count()) for m in masks
                )
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells


def canonicalize(n: int, up: Sequence[int], down: Sequence[int]) -> CanonResult:
    if n == 0:
        return CanonResult(key=(0).to_bytes(2, "big"), perm=(), relabeled_up=(), _parent=[])

    parent = list(range(n))

    def union(a, b):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra

    generators: list = []
    seen_encodings: dict = {}
    best_enc = {"value": None, "perm": None}

    def encode(perm):
        enc = 0
        shift = 0
        for i in range(n):
            row_src = up[perm[i]]
            row = 0
            for j in range(n):
                if row_src >> perm[j] & 1:
                    row |= 1 << j
            enc |= row << shift
            shift += n
        return enc

    def orbit_closure(v, gens):
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

    def search(cells, path):
        idx = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if idx is None:
            perm = tuple(c[0] for c in cells)
            enc = encode(perm)
            prev = seen_encodings.get(enc)
            if prev is None:
                seen_encodings[enc] = perm
            else:
                g = [0] * n
                for i in range(n):
                    g[prev[i]] = perm[i]
                generators.append(tuple(g))
                for a in range(n):
                    union(a, g[a])
            if best_enc["value"] is None or enc < best_enc["value"]:
                best_enc["value"] = enc
                best_enc["perm"] = perm
            return
        cell = cells[idx]
        tried: list = []
        for v in cell:
            # skip candidates in the orbit of an already-explored sibling,
            # under automorphisms that fix the individualized path
            fixing = [g for g in generators if all(g[e] == e for e in path)]
            if fixing and tried and orbit_closure(v, fixing) & set(tried):
                tried.append(v)
                continue
            tried.append(v)
            rest = [w for w in cell if w != v]
            new_cells = cells[:idx] + [[v], rest] + cells[idx + 1:]
            refined = _refine(n, up, down, new_cells)
            search(refined, path + (v,))

    start = _refine(n, up, down, [list(range(n))])
    search(start, ())
    # search refers to itself through its closure; unbinding it breaks that
    # cycle, so the search state is freed on return, not at a later collection
    del search

    perm = best_enc["perm"]
    enc = best_enc["value"]
    rows = tuple((enc >> (i * n)) & ((1 << n) - 1) for i in range(n))
    nbytes = (n * n + 7) // 8
    key = n.to_bytes(2, "big") + enc.to_bytes(nbytes, "big")
    return CanonResult(key=key, perm=perm, relabeled_up=rows, _parent=parent)
