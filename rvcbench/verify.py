"""Output checks that do not run through the solver's own path checker.

Diameters come from networkx.  A graph of diameter 2 has rvc 1.
Otherwise an rvc value v is accepted when a witness with v colours passes
``exists_rainbow_path_oracle`` (brute-force simple path enumeration) on
every non-adjacent pair and v meets the diameter - 1 lower bound; a value
above that bound must also survive this module's own exhaustive refutation
of v - 1 colours.  The program's solver only proposes witnesses here, and
every witness is checked.

Each checker returns ``(attempted, failed)`` for one pass.  An op is one
census record or one solved graph; a non-zero exit code, or an output that
is wrong as a whole, fails every op of the pass.
"""

import csv
import hashlib
import io
import json
from collections import Counter

import networkx as nx

from inputs import Classes, encode_graph6
from rainbowvc.graphs import Graph
from rainbowvc.rainbow import VertexColoring, exists_rainbow_path_oracle, rvc_exact

CSV_HEADER = ["graph6", "n", "rvc_g", "rvc_gbar", "sum", "diam_g", "diam_gbar", "bounds_ok"]
SUMMARY_KEYS = ("n", "total_pairs", "min_sum", "max_sum", "min_witnesses", "max_witnesses", "violations")

# sha256 of the `census --n 7 --builtin --dedup` CSV, recorded when the
# benchmark was defined; its summary reports 662 classes, sums in [2, 6].
N7_CSV_SHA256 = "078a929995d88bc3cc0dd41717aa654ea4d948a8784c6aafa066615669e7d57b"
N7_CLASSES = 662


def diameter(rows: list[int]) -> int:
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from((i, j) for i, r in enumerate(rows) for j in range(i + 1, len(rows)) if (r >> j) & 1)
    return nx.diameter(g)


def witness_ok(rows: list[int], k: int, colors: list[int]) -> bool:
    """True iff ``colors`` (0-based, at most k) makes every pair rainbow-joined."""
    n = len(rows)
    if len(colors) != n or any(not 0 <= c < k for c in colors):
        return False
    g = Graph(n, tuple(rows))
    coloring = VertexColoring(k, tuple(colors))
    return all(
        exists_rainbow_path_oracle(g, coloring, s, t)
        for s in range(n)
        for t in range(s + 1, n)
        if not (rows[s] >> t) & 1
    )


def _rainbow_joined(rows: list[int], colors: tuple[int, ...], s: int, t: int) -> bool:
    # Depth-first over simple paths from s, cut as soon as an internal
    # colour repeats.
    def search(v: int, visited: int, used: int) -> bool:
        if (rows[v] >> t) & 1:
            return True
        for w in range(len(rows)):
            if (rows[v] >> w) & 1 and not (visited >> w) & 1 and w != t:
                cb = 1 << colors[w]
                if not used & cb and search(w, visited | (1 << w), used | cb):
                    return True
        return False

    return search(s, 1 << s, 0)


def _colourings(n: int, k: int):
    # every colouring with at most k colours, up to renaming the colours
    buf = [0] * n

    def grow(i: int, top: int):
        if i == n:
            yield tuple(buf)
            return
        for c in range(min(top + 2, k)):
            buf[i] = c
            yield from grow(i + 1, max(top, c))

    yield from grow(1, 0)


def refutes(rows: list[int], k: int) -> bool:
    """True iff no colouring with at most k colours rainbow-joins every pair."""
    n = len(rows)
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n) if not (rows[s] >> t) & 1]
    return not any(
        all(_rainbow_joined(rows, colors, s, t) for s, t in pairs) for colors in _colourings(n, k)
    )


def certified_rvc(rows: list[int]) -> tuple[int, int] | None:
    """(rvc, diameter) of a connected non-complete graph, or None if unproven."""
    d = diameter(rows)
    if d == 2:
        # one colour: every non-adjacent pair has a common neighbour
        return 1, d
    result = rvc_exact(Graph(len(rows), tuple(rows)))
    v = result.value
    lower = max(1, d - 1)
    if v < lower or result.witness.k != v or not witness_ok(rows, v, list(result.witness.colors)):
        return None
    if v > lower and not refutes(rows, v - 1):
        return None
    return v, d


def _read_csv(text: str) -> list[list[str]] | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return None
    return rows[1:]


def _summary(summary_text: str, stdout: str) -> dict | None:
    try:
        body = json.loads(summary_text)
        if json.loads(stdout) != body:
            return None
    except ValueError:
        return None
    return {key: body.get(key) for key in SUMMARY_KEYS}


def check_census_n7(exit_code: int, csv_text: str, summary_text: str, stdout: str) -> tuple[int, int]:
    summary = _summary(summary_text, stdout)
    ok = (
        exit_code == 0
        and hashlib.sha256(csv_text.encode("ascii")).hexdigest() == N7_CSV_SHA256
        and summary is not None
        and summary["n"] == 7
        and summary["total_pairs"] == N7_CLASSES
        and (summary["min_sum"], summary["max_sum"]) == (2, 6)
        and summary["violations"] == []
    )
    return N7_CLASSES, 0 if ok else N7_CLASSES


class CensusReference:
    """Certified records for a graph6 census input, built once per run.

    ``classes`` maps each input line to a pair of labelled graphs isomorphic
    to it and to its complement, so that a relabelled complement copy reuses
    the certificate of the graph it came from.
    """

    def __init__(self, n: int, lines: list[str], classes: Classes):
        self.lines = lines
        certs: dict[tuple[int, ...], tuple[int, int] | None] = {}
        self.records: dict[str, list[str] | None] = {}
        for line in lines:
            a, b = classes[line]
            for rows in (a, b):
                if rows not in certs:
                    certs[rows] = certified_rvc(list(rows))
            ca, cb = certs[a], certs[b]
            if ca is None or cb is None:
                self.records[line] = None
                continue
            total = ca[0] + cb[0]
            flag = "true" if 2 <= total <= n - 1 else "false"
            self.records[line] = [line, str(n), str(ca[0]), str(cb[0]), str(total), str(ca[1]), str(cb[1]), flag]
        self.summary = self._summary(n)

    def _summary(self, n: int) -> dict:
        recs = [r for r in self.records.values() if r is not None]
        sums = [int(r[4]) for r in recs]
        lo, hi = min(sums), max(sums)
        return {
            "n": n,
            "total_pairs": len(self.lines),
            "min_sum": lo,
            "max_sum": hi,
            "min_witnesses": sorted({r[0] for r in recs if int(r[4]) == lo}),
            "max_witnesses": sorted({r[0] for r in recs if int(r[4]) == hi}),
            "violations": sorted({r[0] for r in recs if r[7] != "true"}),
        }

    def check(self, exit_code: int, csv_text: str, summary_text: str, stdout: str) -> tuple[int, int]:
        attempted = len(self.lines)
        rows = _read_csv(csv_text)
        if exit_code != 0 or rows is None or _summary(summary_text, stdout) != self.summary:
            return attempted, attempted
        left = Counter(self.lines)
        passed = 0
        for row in rows:
            want = self.records.get(row[0]) if row else None
            if want is not None and left[row[0]] > 0 and row == want:
                left[row[0]] -= 1
                passed += 1
        return attempted, attempted - passed


# Known values.  P_n and C_12 meet the diameter - 1 lower bound, so their
# witness proves them.  rvc(C_11) = 5: with 4 colours, vertices at distance
# 5 on C_11 are joined only through 4 consecutive internal vertices, so
# every 4 consecutive vertices need distinct colours, which forces period 4
# around the cycle, and 4 does not divide 11.
SOLVE_HARD = (("path", 12, 10), ("cycle", 11, 5), ("cycle", 12, 5))


def graph_rows(kind: str, n: int) -> list[int]:
    rows = [0] * n
    for i in range(n - 1 if kind == "path" else n):
        j = (i + 1) % n
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def check_solve_hard(exit_codes: list[int], stdout: str) -> tuple[int, int]:
    attempted = len(SOLVE_HARD)
    lines = stdout.splitlines()
    if exit_codes != [0] * attempted or len(lines) != attempted:
        return attempted, attempted
    failed = 0
    for line, (kind, n, want) in zip(lines, SOLVE_HARD):
        rows = graph_rows(kind, n)
        d = diameter(rows)
        try:
            out = json.loads(line)
            colors = [c - 1 for c in out["coloring"]]
            ok = (
                out["graph6"] == encode_graph6(rows)
                and out["diameter"] == d
                and out["rvc"] == want
                and witness_ok(rows, want, colors)
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        failed += not ok
    return attempted, failed

