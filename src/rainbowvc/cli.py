"""Command-line interface: compute, check, construct, census.

Exit codes: 0 success, 1 usage error, 2 data error (bad graph6, bad n,
disconnected input, ingestion failure), 3 theorem violation (a verified
bound failed, including census bound violations at n >= 5).  JSON or CSV
goes to stdout, diagnostics to stderr, and every JSON payload carries a
top-level ``schema: 1`` field.
"""

import argparse
import json
import sys
from typing import Optional

from .census import (
    census_run,
    enumerate_graphs,
    ingest_graph6,
    records_to_csv,
    summary_to_dict,
)
from .constructions import (
    complement_pair,
    cycle_graph,
    lower_bound_pair,
    path_complement_pair,
)
from .graphs import parse_graph6, to_graph6
from .rainbow import (
    TheoremViolationError,
    VertexColoring,
    find_failing_pair,
    rvc_exact,
)

SCHEMA = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _compute_payload(line: str) -> dict:
    g = parse_graph6(line)
    result = rvc_exact(g)
    return {
        "schema": SCHEMA,
        "graph6": to_graph6(g),
        "n": g.n,
        "diameter": result.diameter,
        "rvc": result.value,
        "coloring": [c + 1 for c in result.witness.colors],
        "lower_bound_reason": result.lower_bound_reason,
        "exhausted_k": list(result.exhausted),
    }


def _cmd_compute(args: argparse.Namespace) -> int:
    if args.graph6 is not None:
        _emit(_compute_payload(args.graph6))
        return 0
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            _emit(_compute_payload(line))
        except ValueError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            return 2
    return 0


def _parse_colors(text: str) -> list[int]:
    if not text.strip():
        return []
    out = []
    for part in text.split(","):
        try:
            c = int(part)
        except ValueError:
            raise ValueError(f"color {part!r} is not an integer") from None
        if c < 1:
            raise ValueError("colors are 1-based and must be >= 1")
        out.append(c)
    return out


def _cmd_check(args: argparse.Namespace) -> int:
    g = parse_graph6(args.graph6)
    raw = _parse_colors(args.colors)
    if raw:
        if len(raw) != g.n:
            raise ValueError(f"{len(raw)} colors supplied for {g.n} vertices")
        coloring = VertexColoring(max(raw), tuple(c - 1 for c in raw))
    else:
        coloring = VertexColoring(0, ())
    pair = find_failing_pair(g, coloring)
    payload: dict = {"schema": SCHEMA, "rainbow_vertex_connected": pair is None}
    if pair is not None:
        payload["failing_pair"] = [pair[0], pair[1]]
    _emit(payload)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.family == "path-pair":
        pair = path_complement_pair(args.n)
    elif args.family == "diam2":
        pair = lower_bound_pair(args.n)
    else:
        pair = complement_pair(cycle_graph(args.n))
    _emit(
        {
            "schema": SCHEMA,
            "family": args.family,
            "n": pair.n,
            "graph6": to_graph6(pair.g),
            "complement_graph6": to_graph6(pair.gbar),
            "rvc_g": pair.rvc_g,
            "rvc_gbar": pair.rvc_gbar,
            "sum": pair.sum,
        }
    )
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    if args.builtin == (args.file is not None):
        raise _UsageError("census needs exactly one of --builtin or --file")
    if args.workers < 1:
        raise _UsageError(f"--workers must be at least 1, got {args.workers}")
    if args.n < 5:
        print(
            f"warning: n={args.n} is below the n >= 5 hypothesis of the "
            "complement-sum bound; bound flags may be false",
            file=sys.stderr,
        )
    if args.builtin:
        records, summary = census_run(enumerate_graphs(args.n), args.n, workers=args.workers)
    else:
        errors: list[tuple[int, str]] = []
        # a non-ASCII byte decodes to U+FFFD, so its line fails in
        # parse_graph6 and is reported with its line number
        with open(args.file, "r", encoding="ascii", errors="replace") as fh:
            stream = ingest_graph6(fh, strict=args.strict, errors=errors)
            records, summary = census_run(stream, args.n, workers=args.workers)
        for lineno, message in errors:
            print(f"warning: skipped line {lineno}: {message}", file=sys.stderr)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="ascii", newline="") as fh:
            fh.write(records_to_csv(records))
    body = {"schema": SCHEMA, **summary_to_dict(summary)}
    if args.out_summary:
        with open(args.out_summary, "w", encoding="ascii") as fh:
            json.dump(body, fh, indent=2)
            fh.write("\n")
    _emit(body)
    if args.n >= 5 and summary.violations:
        print(
            f"theorem violation: {len(summary.violations)} graphs break the bounds",
            file=sys.stderr,
        )
        return 3
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rvcng", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact rvc of a graph6 graph")
    p.add_argument("graph6", nargs="?", default=None, help="graph6 string; omit to read lines from stdin")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("check", help="test a coloring for rainbow vertex-connectivity")
    p.add_argument("graph6")
    p.add_argument("colors", help="comma-separated 1-based colors, one per vertex")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="emit an extremal construction with solved values")
    p.add_argument("family", choices=["path-pair", "diam2", "cycle"])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("census", help="exhaustive complement-sum census at order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--builtin", action="store_true", help="enumerate graphs internally (n <= 7)")
    p.add_argument("--file", default=None, help="graph6 lines, one graph per line")
    p.add_argument("--dedup", action="store_true", help="no effect: --builtin always lists one graph per class")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-summary", default=None)
    p.add_argument("--strict", action="store_true", help="abort on the first malformed line")
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
