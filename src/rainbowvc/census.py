"""Exhaustive small-graph census of rvc(G) + rvc(G-bar).

Built-in enumeration (n <= 7) builds one graph per isomorphism class by
vertex extension (after B. D. McKay, J. Algorithms 26 (1998)): from the
order-0 graph, level k joins a new vertex to each order-(k-1) class over
each neighbour set S and keeps one graph per canonical mask.  The bound is
invariant under relabeling, so one graph per class checks it for every
labeled graph.  No class is lost:

- S is kept only if the new vertex has minimum degree.  An order-k graph G
  minus a minimum-degree vertex v is isomorphic, by some phi, to a kept
  class P, and P plus a vertex joined to phi(N(v)) is G again, v relabeled.
- The isomorphism-invariant test (connected, or both sides connected) is
  applied at the last level only, before canonicalising; earlier levels
  keep every class, as a connected graph may lose a vertex and disconnect.

Classes come out in ascending canonical mask (so graph6) order.  Larger
orders come in as graph6 lines from an external generator.

Per-graph work is pure, so a census can be sharded across worker
processes; records are sorted by graph6 string afterwards, which makes the
output byte-identical for any worker count.  Each record solves G and its
complement once; the complement built for the both-sides-connected check
is the one solved, and the diameters come from those solves' all-pairs
BFS.
"""

import multiprocessing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .graphs import (
    Graph,
    Graph6Error,
    _canonical_mask,
    _mask_rows,
    _rows_connected,
    complement,
    is_connected,
    parse_graph6,
    to_graph6,
)
from .rainbow import rvc_exact

BUILTIN_MAX_VERTICES = 7


class IngestError(ValueError):
    """A graph6 line failed to parse in strict mode."""


@dataclass(frozen=True)
class CensusRecord:
    graph6: str
    n: int
    rvc_g: int
    rvc_gbar: int
    sum: int
    diam_g: int
    diam_gbar: int
    bounds_ok: bool


@dataclass(frozen=True)
class CensusSummary:
    n: int
    total_pairs: int
    min_sum: Optional[int]
    max_sum: Optional[int]
    min_witnesses: tuple[str, ...]
    max_witnesses: tuple[str, ...]
    violations: tuple[str, ...]


CSV_HEADER = "graph6,n,rvc_g,rvc_gbar,sum,diam_g,diam_gbar,bounds_ok"


# --- enumeration -------------------------------------------------------------

def _enumerate_masks(n: int, keep: Callable[[list[int]], bool]) -> Iterator[Graph]:
    # keep must be an isomorphism invariant.  Vertex extension by a
    # minimum-degree vertex (see the module docstring), then the last
    # level's canonical masks in order.
    masks = {0}  # the order-0 graph, so K_1 is the first extension
    for k in range(1, n + 1):
        bit = 1 << (k - 1)
        found = set()
        for parent in masks:
            rows = _mask_rows(k - 1, parent)
            degrees = [r.bit_count() for r in rows]
            for s in range(bit):
                d = s.bit_count()
                if any(d > deg + ((s >> i) & 1) for i, deg in enumerate(degrees)):
                    continue
                child = [r | bit if (s >> i) & 1 else r for i, r in enumerate(rows)]
                child.append(s)
                if k == n and not keep(child):
                    continue
                found.add(_canonical_mask(child))
        masks = found
    for mask in sorted(masks):
        yield Graph(n, tuple(_mask_rows(n, mask)))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All order-n graphs with G and complement(G) both connected.

    One representative per isomorphism class (the canonical labeling) in
    ascending canonical order, built by vertex extension (see the module
    docstring).  Built-in range is 2 <= n <= 7.
    """
    if not 2 <= n <= BUILTIN_MAX_VERTICES:
        raise ValueError(
            f"built-in enumeration covers 2..{BUILTIN_MAX_VERTICES}; "
            "ingest graph6 lines for larger orders"
        )
    full = (1 << n) - 1

    def keep(rows: list[int]) -> bool:
        if not _rows_connected(rows, full):
            return False
        crows = [full & ~r & ~(1 << i) for i, r in enumerate(rows)]
        return _rows_connected(crows, full)

    return _enumerate_masks(n, keep)


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """All connected order-n graphs (1 <= n <= 7), listed as by enumerate_graphs."""
    if not 1 <= n <= BUILTIN_MAX_VERTICES:
        raise ValueError(f"built-in enumeration covers 1..{BUILTIN_MAX_VERTICES}")
    full = (1 << n) - 1
    return _enumerate_masks(n, lambda rows: _rows_connected(rows, full))


def ingest_graph6(
    lines: Iterable[str],
    strict: bool = True,
    errors: Optional[list[tuple[int, str]]] = None,
) -> Iterator[Graph]:
    """Parse graph6 lines, keeping graphs whose complement is also connected.

    Blank lines are skipped.  A malformed line raises IngestError with its
    line number in strict mode; otherwise it is recorded in ``errors`` (if
    given) and skipped.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            if strict:
                raise IngestError(f"line {lineno}: {exc}") from exc
            if errors is not None:
                errors.append((lineno, str(exc)))
            continue
        if is_connected(g) and is_connected(complement(g)):
            yield g


# --- per-record computation ---------------------------------------------------

def _compute_record(g: Graph, gbar: Graph) -> CensusRecord:
    a = rvc_exact(g)
    b = rvc_exact(gbar)
    total = a.value + b.value
    return CensusRecord(
        graph6=to_graph6(g),
        n=g.n,
        rvc_g=a.value,
        rvc_gbar=b.value,
        sum=total,
        diam_g=a.diameter,
        diam_gbar=b.diameter,
        bounds_ok=2 <= total <= g.n - 1,
    )


def census_run(
    source: Iterable[Graph], n: int, workers: int = 1
) -> tuple[list[CensusRecord], CensusSummary]:
    """Compute one record per graph and aggregate the bound check.

    Every graph in the stream must have order n with both sides connected.
    Records come back sorted by graph6 string regardless of stream order or
    worker count.
    """
    pairs: list[tuple[Graph, Graph]] = []
    for g in source:
        if g.n != n:
            raise ValueError(f"stream mixes orders: expected {n}, got {g.n}")
        gbar = complement(g)
        if not is_connected(g) or not is_connected(gbar):
            raise ValueError(
                f"stream graph {to_graph6(g)} fails the both-sides-connected precondition"
            )
        pairs.append((g, gbar))
    if workers > 1 and len(pairs) > 1:
        chunk = max(1, len(pairs) // (workers * 8))
        with multiprocessing.Pool(processes=workers) as pool:
            records = pool.starmap(_compute_record, pairs, chunksize=chunk)
    else:
        records = [_compute_record(g, gbar) for g, gbar in pairs]
    records.sort(key=lambda r: r.graph6)
    return records, _summarize(records, n)


def _summarize(records: list[CensusRecord], n: int) -> CensusSummary:
    if not records:
        return CensusSummary(n, 0, None, None, (), (), ())
    sums = [r.sum for r in records]
    lo, hi = min(sums), max(sums)
    return CensusSummary(
        n=n,
        total_pairs=len(records),
        min_sum=lo,
        max_sum=hi,
        min_witnesses=tuple(sorted({r.graph6 for r in records if r.sum == lo})),
        max_witnesses=tuple(sorted({r.graph6 for r in records if r.sum == hi})),
        violations=tuple(sorted({r.graph6 for r in records if not r.bounds_ok})),
    )


# --- output ---------------------------------------------------------------

def records_to_csv(records: Iterable[CensusRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        flag = "true" if r.bounds_ok else "false"
        lines.append(
            f"{r.graph6},{r.n},{r.rvc_g},{r.rvc_gbar},{r.sum},{r.diam_g},{r.diam_gbar},{flag}"
        )
    return "\n".join(lines) + "\n"


def summary_to_dict(summary: CensusSummary) -> dict:
    return {
        "n": summary.n,
        "total_pairs": summary.total_pairs,
        "min_sum": summary.min_sum,
        "max_sum": summary.max_sum,
        "min_witnesses": list(summary.min_witnesses),
        "max_witnesses": list(summary.max_witnesses),
        "violations": list(summary.violations),
    }
