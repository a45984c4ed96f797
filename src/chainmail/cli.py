"""Command-line surface.

Subcommands: validate, classify, exterior, enumerate, fixtures, export-dot.
JSON on stdout by default, aligned text with --pretty; diagnostics go to
stderr.  Exit codes: 0 success, 1 bad input or failed validation, 2 a
resource guard refused the computation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Iterable, Optional

from .connectivity import ConnectivityPair, classify, report_to_json_text
from .config import ENUM_CAPS
from .enumeration import enumerate_kind
from .errors import FormatError, GuardExceeded, PreconditionError
from .exterior import exterior
from .generators import fixture_description, fixture_names, named_fixture
from .poset import FinitePoset, bits_of, checked_mask, connectivity_from_json, set_of


def export_dot(p: FinitePoset, connected: Optional[Iterable[int]] = None) -> str:
    """DOT digraph of the cover relation, drawn bottom-to-top.  Members of
    the connectivity render hollow, everything else filled, matching the
    usual Hasse-diagram convention for distinguished elements."""
    cset = set_of(checked_mask(p.n, connected)) if connected is not None else None
    lines = ["digraph poset {", "  rankdir=BT;", '  node [shape=circle, style=filled];']
    for v in range(p.n):
        if cset is None:
            style = 'fillcolor="lightgray"'
        elif v in cset:
            style = 'fillcolor="white"'
        else:
            style = 'fillcolor="gray25", fontcolor="white"'
        lines.append(f"  {v} [{style}];")
    for a, b in sorted(p.covers):
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _read_json_input(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: a decode error, or an integer literal past Python's
        # digit limit; RecursionError: arrays or objects nested too deeply
        raise FormatError(f"malformed JSON: {exc}") from None


def _write_file(path: str, chunks: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str) -> None:
    """Raise now the error that writing ``path`` would raise after a long
    run.  An existing file is opened without truncation, and a new one is
    created and removed at once, so nothing is left behind."""
    try:
        if os.path.exists(path):
            os.close(os.open(path, os.O_WRONLY))
        else:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(path)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def _load_structure(args) -> tuple:
    """(poset, connectivity members or None) from a fixture or JSON input.
    Only ``classify`` makes a pair of them, so the other commands take any
    poset, a lattice or not."""
    if getattr(args, "fixture", None):
        value = named_fixture(args.fixture)
        if isinstance(value, ConnectivityPair):
            return value.lattice, value.connected
        return value, None
    if getattr(args, "input", None):
        obj = _read_json_input(args.input)
        if isinstance(obj, dict) and "connectivity" in obj:
            poset, members = connectivity_from_json(obj)
        else:
            poset, members = FinitePoset.from_json(obj), None
        violation = poset.validate()
        if violation is not None:
            raise FormatError(f"input is not a poset: {violation.describe()}")
        return poset, members
    raise FormatError("either --fixture or --input is required")


def _cmd_validate(args) -> int:
    obj = _read_json_input(args.input)
    poset = FinitePoset.from_json(obj)
    violation = poset.validate()
    if violation is None:
        print(json.dumps({"ok": True, "n": poset.n}, separators=(",", ":")))
        return 0
    print(json.dumps({"ok": False, "axiom": violation.axiom, "witness": list(violation.witness)},
                     separators=(",", ":")))
    print(f"validation failed: {violation.describe()}", file=sys.stderr)
    return 1


def _cmd_classify(args) -> int:
    poset, members = _load_structure(args)
    if members is None:
        raise FormatError(
            "classification needs a connectivity pair; supply a fixture that is a "
            'pair or JSON with a "connectivity" field'
        )
    report = classify(ConnectivityPair(poset, members))
    print(report_to_json_text(report, pretty=args.pretty))
    return 0


def _cmd_exterior(args) -> int:
    poset, _members = _load_structure(args)
    family = exterior(poset)
    obj = {
        "base_n": poset.n,
        "base_is_chainmail": poset.is_chainmail(),
        "set_count": len(family.masks),
        "sets": [list(bits_of(m)) for m in family.masks],
        "is_complete_lattice": family.order.is_complete_lattice(),
        "covers": [list(e) for e in sorted(family.order.covers)],
    }
    if args.pretty:
        width = len(str(len(family.masks)))
        lines = [f"exterior of a poset on {poset.n} elements: {len(family.masks)} TMD sets"]
        for i, m in enumerate(family.masks):
            lines.append(f"  [{i:>{width}}] {{{', '.join(map(str, bits_of(m)))}}}")
        lines.append(f"complete lattice: {obj['is_complete_lattice']}")
        lines.append(f"base is a chainmail: {obj['base_is_chainmail']}")
        print("\n".join(lines))
    else:
        print(json.dumps(obj, separators=(",", ":")))
    return 0


def _cmd_enumerate(args) -> int:
    if args.catalog:
        _check_writable(args.catalog)
    result = enumerate_kind(args.kind, args.n, args.catalog is not None, args.threads, args.deep)
    obj = {"kind": args.kind, "n": result.n, "count": result.count}
    if args.catalog:
        _write_file(args.catalog, (p.to_json_line() + "\n" for p in result.catalog))
        obj["catalog"] = args.catalog
    print(f"elapsed: {result.elapsed:.3f}s", file=sys.stderr)
    if args.pretty:
        print(f"{args.kind} on {result.n} elements: {result.count} isomorphism classes")
        if args.catalog:
            print(f"catalog written to {args.catalog}")
    else:
        print(json.dumps(obj, separators=(",", ":")))
    return 0


def _cmd_fixtures(args) -> int:
    rows = []
    for name in fixture_names():
        value = named_fixture(name)
        kind = "pair" if isinstance(value, ConnectivityPair) else "poset"
        rows.append({"name": name, "kind": kind, "description": fixture_description(name)})
    if args.pretty:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            print(f"{r['name']:<{width}}  {r['kind']:<5}  {r['description']}")
    else:
        print(json.dumps(rows, separators=(",", ":")))
    return 0


def _cmd_export_dot(args) -> int:
    text = export_dot(*_load_structure(args))
    if args.output:
        _write_file(args.output, [text])
    else:
        sys.stdout.write(text)
    return 0


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing does not change it, and building it
    takes about a millisecond per call."""
    parser = argparse.ArgumentParser(
        prog="chainmail",
        description="finite posets, chainmails, exteriors, connectivity taxonomy, enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check the poset axioms of a JSON input")
    p_validate.add_argument("--input", default="-", help="JSON file, or - for stdin")

    def add_source(p):
        p.add_argument("--fixture", help="named fixture from the registry")
        p.add_argument("--input", help="JSON file, or - for stdin")
        p.add_argument("--pretty", action="store_true", help="human-readable output")

    p_classify = sub.add_parser("classify", help="taxonomy report for a connectivity pair")
    add_source(p_classify)

    p_exterior = sub.add_parser("exterior", help="totally mail-disconnected family of a poset")
    add_source(p_exterior)

    p_enum = sub.add_parser("enumerate", help="isomorph-free counting and catalogs")
    p_enum.add_argument("--kind", choices=["posets", "chainmails"], default="chainmails")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--catalog", help="write a JSON-lines catalog here")
    sizes = " and ".join(map(str, range(ENUM_CAPS["chainmails"][0] + 1, ENUM_CAPS["chainmails"][1] + 1)))
    p_enum.add_argument("--deep", action="store_true", help=f"allow the slow sizes {sizes}")
    p_enum.add_argument("--threads", type=int, default=1,
                        help="worker processes; at most the CPU count are started")
    p_enum.add_argument("--pretty", action="store_true")

    p_fixtures = sub.add_parser("fixtures", help="list the fixture registry")
    p_fixtures.add_argument("--pretty", action="store_true")

    p_dot = sub.add_parser("export-dot", help="DOT Hasse diagram, connectivity drawn hollow")
    add_source(p_dot)
    p_dot.add_argument("--output", help="write to a file instead of stdout")

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "exterior": _cmd_exterior,
    "enumerate": _cmd_enumerate,
    "fixtures": _cmd_fixtures,
    "export-dot": _cmd_export_dot,
}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except GuardExceeded as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except (FormatError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; send the interpreter's final flush
        # to devnull so it cannot raise a second time at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before it was fully written", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
