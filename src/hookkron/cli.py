"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage, parse, file,
oracle, out-of-memory or too-deep-recursion error.  A reader that closes
stdout early ends the command quietly, with the status decided so far.
JSON output is byte-identical across runs and across ``--jobs`` settings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .hook_rule import (
    DecompositionTable,
    decompose_tensor_exterior,
    decompose_tensor_hook,
    pw_set,
)
from .lr import lr_coefficient
from .pictures import (
    picture_bump_destination,
    picture_from_json,
    picture_to_json,
    render_picture,
)
from .shapes import format_cell, format_partition, parse_cell, parse_partition
from .tableaux import render_tableau, tableau_from_json
from .verify import verify_range


def _print_table(table: DecompositionTable, fmt: str) -> None:
    """Every format prints the rows of ``table.to_json()``, whose count keys
    (``ph`` only in a hook table) are the columns; a table is never empty."""
    obj = table.to_json()
    if fmt == "json":
        print(json.dumps(obj, separators=(",", ":")))
        return
    if fmt == "tsv":
        print("\t".join(obj["rows"][0]))
    for row in obj["rows"]:
        (_, mu), *counts, (_, by_zeta) = row.items()
        if fmt == "tsv":
            blob = json.dumps(by_zeta, separators=(",", ":"))
            print("\t".join([format_partition(mu), *(str(v) for _, v in counts), blob]))
        else:
            print(f"{format_partition(mu)} -> " + " ".join(f"{k}={v}" for k, v in counts))


def cmd_table(args: argparse.Namespace) -> int:
    # named per call, not held by the parser, so a rebinding of either name takes effect
    decompose = decompose_tensor_hook if args.command == "decompose" else decompose_tensor_exterior
    table = decompose(parse_partition(args.lam), args.m, jobs=args.jobs)
    _print_table(table, args.format)
    return 0


def cmd_pictures(args: argparse.Namespace) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    zeta = parse_partition(args.zeta)
    bump_at = parse_cell(args.bump) if args.bump else None
    for k, tp in enumerate(pw_set(lam, mu, zeta)):
        route = None
        destination = None
        if bump_at is not None:
            destination, route = picture_bump_destination(tp.picture, bump_at)
        if args.format == "json":
            obj = picture_to_json(tp.picture)
            if route is not None:
                obj["bump"] = {
                    "at": list(bump_at),
                    "destination": list(destination),
                    "route": [list(cell) for cell in route.cells],
                }
            print(json.dumps(obj, separators=(",", ":")))
        else:
            print(f"# picture {k + 1}")
            print(render_picture(tp.picture, route))
            if route is not None:
                print(
                    f"# bump {format_cell(bump_at)}: destination "
                    f"{format_cell(destination)}"
                )
            print()
    return 0


def cmd_lr(args: argparse.Namespace) -> int:
    value = lr_coefficient(
        parse_partition(args.lam), parse_partition(args.zeta), parse_partition(args.xi)
    )
    print(value)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cache = args.cache or os.environ.get("HOOKKRON_CACHE") or None
    n_min = args.n_min if args.n_min is not None else args.n
    report = verify_range(n_min, args.n, jobs=args.jobs, cache=cache)
    args.status = 0 if report.ok else 1  # decided before any line is printed
    for mismatch in report.mismatches:
        print(str(mismatch))
    print(report.summary())
    return args.status


def cmd_render(args: argparse.Namespace) -> int:
    if args.infile and args.infile != "-":
        with open(args.infile, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("input JSON must be an object")
    try:
        if "entries" in obj:
            item, render = tableau_from_json(obj), render_tableau
        elif "map" in obj:
            item, render = picture_from_json(obj), render_picture
        else:
            raise ValueError("input JSON is neither a tableau nor a picture")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed input JSON: {type(exc).__name__}: {exc}") from None
    print(render(item))
    return 0


def worker_count(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no command's library function."""
    parser = argparse.ArgumentParser(
        prog="hookkron",
        description="Tensor multiplicities for symmetric groups with a hook factor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("decompose", "decompose lambda tensor the hook of leg m"),
        ("exterior", "decompose lambda tensor the m-th exterior power"),
    ):
        table = sub.add_parser(name, help=help_text)
        table.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
        table.add_argument("--m", type=int, required=True)
        table.add_argument("--format", choices=("json", "tsv", "ascii"), default="ascii")
        table.add_argument("--jobs", type=worker_count, default=1)
        table.set_defaults(func=cmd_table)

    pictures = sub.add_parser("pictures", help="enumerate pictures of one overlap")
    pictures.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    pictures.add_argument("--mu", required=True, metavar="PARTS")
    pictures.add_argument("--zeta", required=True, metavar="PARTS")
    pictures.add_argument("--format", choices=("json", "ascii"), default="ascii")
    pictures.add_argument(
        "--bump", metavar="CELL", help="overlay the bumping route for this target cocorner"
    )
    pictures.set_defaults(func=cmd_pictures)

    lr = sub.add_parser("lr", help="one Littlewood-Richardson coefficient")
    lr.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    lr.add_argument("--zeta", required=True, metavar="PARTS")
    lr.add_argument("--xi", required=True, metavar="PARTS")
    lr.set_defaults(func=cmd_lr)

    verify = sub.add_parser("verify", help="sweep picture counts against the character oracle")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--n-min", type=int, default=None, dest="n_min")
    verify.add_argument("--jobs", type=worker_count, default=1)
    verify.add_argument(
        "--cache", default=None, help="export the character tables of the swept degrees here"
    )
    verify.set_defaults(func=cmd_verify)

    render = sub.add_parser("render", help="pretty-print a tableau or picture from JSON")
    render.add_argument("--in", dest="infile", default="-", metavar="PATH")
    render.set_defaults(func=cmd_render)

    parser.set_defaults(status=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader has what it wants: point stdout at devnull, so no later flush fails
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # a stdout with no descriptor holds no pipe
            return args.status
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, fd)
        finally:
            os.close(devnull)
        return args.status
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        limit = "out of memory" if isinstance(exc, MemoryError) else "recursion too deep"
        print(f"error: {limit}: the input is too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
