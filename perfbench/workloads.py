"""Inputs, operations and output checks of the benchmark's four workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An operation is a ``run`` callable,
which is timed, and a ``finish`` callable, which is not: ``finish`` turns
the raw result into an output digest, checks it, and counts the items
(isomorphism classes or checked structures) it produced.

A workload repeats its work in passes: the same enumerate call, or the
same structures under fresh relabelings.  The operations that repeat one
piece of work share a slot, so that the run can time each piece of work
at its least disturbed repeat.

Operations look every library function up on its module at call time, so
the timing wrappers of ``tracing`` see each call.

Inputs are distinct within a run: several library functions are
``lru_cache``s keyed by value, and a repeated input would time a cache hit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
import sys
import types
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
DEFAULT_SEED = 0
LAYERS = ("cli", "poset", "canon", "enumeration", "exterior", "connectivity", "generators")


def load_chainmail() -> types.SimpleNamespace:
    """Import the package from this checkout's ``src/``, never from an
    installed copy, and return its layer modules by name."""
    src = ROOT / "src"
    if not (src / "chainmail" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no chainmail sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("chainmail")
    if Path(package.__file__).resolve().parent != src / "chainmail":
        raise SystemExit(f"perfbench: imported chainmail from {package.__file__}, not from {src}")
    return types.SimpleNamespace(**{name: importlib.import_module(f"chainmail.{name}")
                                    for name in LAYERS})


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Outcome(NamedTuple):
    digest: str
    ok: bool
    items: int


class Op(NamedTuple):
    key: str
    slot: str    # operations of one slot repeat the same work on relabeled inputs
    run: Callable[[], object]
    finish: Callable[[object], Outcome]


def run_cli(cli, argv: list) -> tuple:
    """``cli.run(argv)`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# enumeration workloads
# ---------------------------------------------------------------------------

def catalog_digest(catalog) -> str:
    """SHA-256 of a catalog as the CLI writes it: one JSON line per poset."""
    return sha256("".join(p.to_json_line() + "\n" for p in catalog))


class _Enumerate:
    """One enumerate call per operation; nothing is cached across calls."""

    items = "isomorphism classes (classes_per_s)"
    threads = 1
    window_ops = 10  # the time metrics and peak RSS are read over this many operations
    trace_ops = 1    # operations in each replay of a traced run
    count = 0        # the published number of classes

    def __init__(self, cm, seed: int, workdir: Path):
        self.cm = cm
        self.expected_sha = load_expected()[self.name]["catalog_sha256"]

    def call(self):
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        while True:
            yield Op(self.name, self.name, self.call, self.finish)

    def finish(self, result) -> Outcome:
        digest = catalog_digest(result.catalog)
        ok = result.count == self.count and digest == self.expected_sha
        return Outcome(digest, ok, result.count)


class EnumChainmails(_Enumerate):
    name = "enum-chainmails"
    why = ("headline enumeration; keeps the down-set listing, the completability "
           "filter and canonical labeling hot")
    count = 1842

    def call(self):
        return self.cm.enumeration.enumerate_connected_chainmails(8, want_catalog=True)


class EnumPosetsT2(_Enumerate):
    name = "enum-posets-t2"
    why = ("no completability filter, more symmetric posets for canon; the only "
           "workload using the two-worker fork pool and catalog transfer")
    threads = 2
    window_ops = 8
    count = 16999

    def call(self):
        return self.cm.enumeration.enumerate_posets(8, want_catalog=True, threads=2)


# ---------------------------------------------------------------------------
# classify-wide
# ---------------------------------------------------------------------------

WIDTHS = tuple(range(10, 16))   # points of the closure systems, in turn
POOL_PER_WIDTH = 10             # structures of each width in the pool
MAX_ELEMENTS = 28               # larger closure systems are drawn again


def _popcount(x: int) -> int:
    return bin(x).count("1")


def wide_structure(rng: random.Random, k: int) -> tuple:
    """A closure system on k points and a connectivity on it.

    The closed sets are the empty set, the full set, every singleton and
    2-5 random subsets, closed under intersection, with at most
    ``MAX_ELEMENTS`` sets; ordered by inclusion they form a complete
    lattice.  Returns ``(sets, connected)``: element i is the point set
    ``sets[i]`` (ordered by size, then mask), and the connectivity holds
    the bottom, the atoms and each other element with probability one half.
    """
    full = (1 << k) - 1
    family = set()
    while not family or len(family) > MAX_ELEMENTS:
        family = {0, full} | {1 << i for i in range(k)}
        for _ in range(rng.randint(2, 5)):
            s = 0
            while not 2 <= _popcount(s) < k:
                s = rng.getrandbits(k)
            family.add(s)
        grown = True
        while grown:
            grown = False
            for a, b in itertools.combinations(sorted(family), 2):
                if a & b not in family:
                    family.add(a & b)
                    grown = True
    sets = tuple(sorted(family, key=lambda s: (_popcount(s), s)))
    connected = tuple(i for i, s in enumerate(sets) if _popcount(s) <= 1 or rng.random() < 0.5)
    return sets, connected


def leq_pairs(sets: tuple) -> list:
    return [[a, b] for a, sa in enumerate(sets) for b, sb in enumerate(sets)
            if a != b and sa & ~sb == 0]


def order_key(sets: tuple) -> tuple:
    """The order as a value: equal keys give equal posets, which the
    library's caches would serve from memory."""
    return len(sets), tuple(map(tuple, leq_pairs(sets)))


def wide_pool() -> list:
    """The fixed structures every seed's inputs are relabelings of:
    ``POOL_PER_WIDTH`` of each width, pairwise distinct, and structure i
    has ``WIDTHS[i % 6]`` points.  Classify's cost grows exponentially
    with width and differs a lot between structures of one width, so
    drawing the structures per seed would make one seed's run cost more
    than another's; relabeling a fixed pool keeps the cost profile."""
    rng = random.Random("classify-wide:pool")
    seen = set()
    pool = []
    while len(pool) < POOL_PER_WIDTH * len(WIDTHS):
        sets, connected = wide_structure(rng, WIDTHS[len(pool) % len(WIDTHS)])
        if order_key(sets) not in seen:
            seen.add(order_key(sets))
            pool.append((sets, connected))
    return pool


def relabel_points(sets: tuple, connected: tuple, perm: list) -> tuple:
    """The structure with point i renamed ``perm[i]``, its elements sorted
    again by size, then mask."""
    moved = [_union(1 << perm[i] for i in range(len(perm)) if s >> i & 1) for s in sets]
    order = sorted(range(len(sets)), key=lambda e: (_popcount(moved[e]), moved[e]))
    index = {old: new for new, old in enumerate(order)}
    return tuple(moved[e] for e in order), tuple(sorted(index[c] for c in connected))


def wide_inputs(seed: int, pool: list) -> Iterator[tuple]:
    """Endless passes over the pool, each structure under a fresh seeded
    relabeling of its points; no order repeats, so no input is a cache
    hit."""
    seen = set()
    for sweep in itertools.count():
        rng = random.Random(f"classify-wide:{seed}:{sweep}")
        for sets, connected in pool:
            k = max(sets).bit_length()
            while True:
                relabeled = relabel_points(sets, connected, rng.sample(range(k), k))
                if order_key(relabeled[0]) not in seen:
                    break
            seen.add(order_key(relabeled[0]))
            yield relabeled


def wide_batch(seed: int, count: int) -> list:
    """The first ``count`` inputs of a seed."""
    return list(itertools.islice(wide_inputs(seed, wide_pool()), count))


def wide_json(sets: tuple, connected: tuple) -> str:
    return json.dumps({"n": len(sets), "leq": leq_pairs(sets), "connectivity": list(connected)},
                      separators=(",", ":"))


def wide_report_problems(report: dict, sets: tuple, connected: tuple) -> list:
    """Verdicts of a classify report that disagree with direct computation
    on the closure system; empty when the report is consistent."""
    n = len(sets)
    cset = set(connected)

    def closure(points: int) -> int:
        return min((s for s in sets if points & ~s == 0), key=_popcount)

    def below(a: int) -> list:
        return [c for c in connected if sets[c] & ~sets[a] == 0]

    problems = []
    expect = {
        "cl0": 0 in cset,
        "cl1_half": all(below(a) for a in range(1, n)),
        "cl2": all(closure(_union(sets[c] for c in below(a))) == sets[a] for a in range(n)),
        "degenerate": len(cset) == n,
        "kernel": report["connectivity"] and report["cl0"],
        "typical": report["cl1"] and not report["cl0"],
        "well_founded": report["connectivity"] and report["cl1_half"],
        "saturated": report["connectivity"] and report["cl2"],
        "separated": report["connectivity"] and report["cl3"],
        "serra": report["cl1"] and not report["cl0"] and report["cl2"],
        "connected_equals_absolutely_connected": set(report["absolutely_connected"]) == cset,
    }
    for key, value in expect.items():
        if report[key] != value:
            problems.append(key)
    # the bottom is connected, so two incomparable connected elements whose
    # join is not connected already refute the subchainmail property
    escapes = any(
        sets[a] & ~sets[b] and sets[b] & ~sets[a]
        and sets.index(closure(sets[a] | sets[b])) not in cset
        for a, b in itertools.combinations(connected, 2)
    )
    if escapes and report["connectivity"]:
        problems.append("connectivity")
    return problems


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


class ClassifyWide:
    name = "classify-wide"
    why = ("analysis path via the CLI: pair fixtures, then distinct relabelings of "
           "wide lattices whose cost grows exponentially with width; no canon")
    items = "checked structures (checks_per_s)"
    threads = 1

    def __init__(self, cm, seed: int, workdir: Path):
        self.cm = cm
        expected = load_expected()[self.name]
        self.fixtures = expected["fixtures"]
        self.seed_digests = expected["default_seed_sha256"] if seed == DEFAULT_SEED else []
        self.workdir = workdir
        pool = wide_pool()
        self.inputs = wide_inputs(seed, pool)
        self.batch, self.paths = [], []
        workdir.mkdir(parents=True, exist_ok=True)
        for _ in pool:    # the first pass is written during set-up
            self._write_next()
        self.pool_size = len(pool)
        self.window_ops = len(self.fixtures) + 5 * len(pool)
        self.trace_ops = len(self.fixtures) + 4 * len(WIDTHS)

    def _write_next(self) -> None:
        sets, connected = structure = next(self.inputs)
        path = self.workdir / f"wide-{len(self.paths):05d}.json"
        path.write_text(wide_json(sets, connected), encoding="utf-8")
        self.batch.append(structure)
        self.paths.append(str(path))

    def ops(self) -> Iterator[Op]:
        for name in self.fixtures:
            yield Op(f"fixture:{name}", f"fixture:{name}", self._cli(["classify", "--fixture", name]),
                     lambda raw, name=name: self._finish_fixture(name, raw))
        for i in itertools.count():
            if i == len(self.paths):
                self._write_next()
            yield Op(f"wide:{i}", f"pool:{i % self.pool_size}",
                     self._cli(["classify", "--input", self.paths[i]]),
                     lambda raw, i=i: self._finish_wide(i, raw))

    def _cli(self, argv: list) -> Callable[[], tuple]:
        return lambda: run_cli(self.cm.cli, argv)

    def _finish_fixture(self, name: str, raw: tuple) -> Outcome:
        code, out, _err = raw
        digest = sha256(out)
        return Outcome(digest, code == 0 and digest == self.fixtures[name], 1)

    def _finish_wide(self, i: int, raw: tuple) -> Outcome:
        code, out, _err = raw
        digest = sha256(out)
        ok = code == 0 and not wide_report_problems(json.loads(out), *self.batch[i])
        if i < len(self.seed_digests):
            ok = ok and digest == self.seed_digests[i]
        return Outcome(digest, ok, 1)


# ---------------------------------------------------------------------------
# sweep-small
# ---------------------------------------------------------------------------

def relabel(poset_cls, p, perm: list):
    """The poset ``p`` with element a renamed ``perm[a]``."""
    rows = [0] * p.n
    for a in range(p.n):
        row = p.up[a]
        while row:
            low = row & -row
            rows[perm[a]] |= 1 << perm[low.bit_length() - 1]
            row ^= low
    return poset_cls(p.n, tuple(rows))


def verdict_bits(report) -> int:
    """The boolean verdicts of a taxonomy report, in field order, as an
    integer; witnesses are left out, since they change under relabeling."""
    bits = 0
    for value in report.to_json().values():
        if isinstance(value, bool):
            bits = bits << 1 | value
    return bits


def sweep_corpus(cm) -> tuple:
    """Every poset with at most 7 elements, and every (complete lattice with
    at most 6 elements, subset) pair, both in catalog order."""
    enum = cm.enumeration
    posets = [p for n in range(8) for p in enum.enumerate_posets(n, want_catalog=True).catalog]
    pairs = [(pair.lattice, pair.connected) for pair in enum.enumerate_connectivity_pairs(6)]
    return posets, pairs


def sweep_digest(chainmail_bits: str, pair_verdicts: list) -> str:
    return sha256(json.dumps([chainmail_bits, pair_verdicts], separators=(",", ":")))


class SweepSmall:
    name = "sweep-small"
    why = ("thousands of tiny inputs, each freshly relabeled per pass: per-call "
           "overhead, exteriors and cache reuse across the subsets of one lattice")
    items = "checked structures (checks_per_s)"
    threads = 1

    def __init__(self, cm, seed: int, workdir: Path):
        self.cm = cm
        self.seed = seed
        self.posets, self.pairs = sweep_corpus(cm)
        expected = load_expected()[self.name]
        self.chainmail_bits = expected["chainmail_bits"]
        self.pair_verdicts = expected["pair_verdicts"]
        if sweep_digest(self.chainmail_bits, self.pair_verdicts) != expected["verdicts_sha256"]:
            raise SystemExit("perfbench: expected sweep verdicts do not match their digest")
        self.trace_ops = len(self.posets) + len(self.pairs)    # one pass
        self.window_ops = 10 * self.trace_ops

    def ops(self) -> Iterator[Op]:
        poset_cls = self.cm.poset.FinitePoset
        for sweep in itertools.count():
            rng = random.Random(f"sweep-small:{self.seed}:{sweep}")
            for i, p in enumerate(self.posets):
                q = relabel(poset_cls, p, rng.sample(range(p.n), p.n))
                yield Op(f"poset:{i}", f"poset:{i}", lambda q=q: self._exterior_check(q),
                         lambda raw, i=i: self._finish_poset(i, raw))
            relabeled = {}
            for j, (lattice, connected) in enumerate(self.pairs):
                if lattice not in relabeled:
                    perm = rng.sample(range(lattice.n), lattice.n)
                    relabeled[lattice] = (relabel(poset_cls, lattice, perm), perm)
                lat, perm = relabeled[lattice]
                members = frozenset(perm[c] for c in connected)
                yield Op(f"pair:{j}", f"pair:{j}", lambda lat=lat, members=members: self._classify(lat, members),
                         lambda raw, j=j: self._finish_pair(j, raw))

    def _exterior_check(self, q) -> tuple:
        complete = self.cm.exterior.exterior(q).order.is_complete_lattice()
        return complete, q.is_chainmail()

    def _classify(self, lattice, members):
        conn = self.cm.connectivity
        return conn.classify(conn.ConnectivityPair(lattice, members))

    def _finish_poset(self, i: int, raw: tuple) -> Outcome:
        complete, chainmail = raw
        digest = f"{complete:d}{chainmail:d}"
        return Outcome(digest, complete == chainmail and digest[1] == self.chainmail_bits[i], 1)

    def _finish_pair(self, j: int, report) -> Outcome:
        bits = verdict_bits(report)
        return Outcome(str(bits), bits == self.pair_verdicts[j], 1)


WORKLOADS = {cls.name: cls for cls in (EnumChainmails, EnumPosetsT2, ClassifyWide, SweepSmall)}
