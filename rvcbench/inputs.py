"""Seeded inputs for the benchmark workloads.

The graph6 encoder and the graph helpers here are the benchmark's own, so
that the program's codec is exercised on text it did not write.
"""

import random

N8_ORDER = 8
N8_LINES = 2000


def _connected(rows: list[int]) -> bool:
    n = len(rows)
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in range(n):
            if (frontier >> v) & 1:
                nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _complement_rows(rows: list[int]) -> list[int]:
    full = (1 << len(rows)) - 1
    return [full & ~r & ~(1 << i) for i, r in enumerate(rows)]


def encode_graph6(rows: list[int]) -> str:
    """graph6 text of a graph given as adjacency bitsets (n <= 62)."""
    n = len(rows)
    bits = [(rows[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for p in range(0, len(bits), 6):
        v = 0
        for b in bits[p:p + 6]:
            v = (v << 1) | b
        out.append(chr(63 + v))
    return "".join(out)


Classes = dict[str, tuple[tuple[int, ...], tuple[int, ...]]]


def n8_census_input(seed: int, count: int = N8_LINES) -> tuple[list[str], Classes]:
    """Complement-closed list of labelled order-8 graphs, both sides connected.

    Each base graph draws its edge density from [0.25, 0.75] and is followed
    by a randomly relabelled copy of its complement; the lines are then
    shuffled.  Like a class list from a generator, every graph's complement
    class is present, so a solver memo has real reuse available.

    Also returns, for each line, a labelled graph isomorphic to it and one
    isomorphic to its complement, so a checker can certify each pair once.
    """
    rng = random.Random(seed)
    n = N8_ORDER
    lines: list[str] = []
    classes: Classes = {}
    while len(lines) < count:
        p = rng.uniform(0.25, 0.75)
        rows = [0] * n
        for j in range(1, n):
            for i in range(j):
                if rng.random() < p:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        comp = _complement_rows(rows)
        if not (_connected(rows) and _connected(comp)):
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [0] * n
        for i in range(n):
            for j in range(n):
                if (comp[i] >> j) & 1:
                    moved[perm[i]] |= 1 << perm[j]
        for line, pair in ((encode_graph6(rows), (rows, comp)), (encode_graph6(moved), (comp, rows))):
            lines.append(line)
            classes.setdefault(line, (tuple(pair[0]), tuple(pair[1])))
    rng.shuffle(lines)
    return lines, classes
