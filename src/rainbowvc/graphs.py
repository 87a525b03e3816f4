"""Small undirected graphs stored as per-vertex bitsets.

Vertices are labeled 0..n-1 and each adjacency row is a Python int used as
a bitset, which caps the order at 64 but keeps traversal loops branch-light.
The upper triangle of the adjacency matrix packs into one int in graph6
bit order.  On that packing the module builds a bit-exact graph6 codec
(single-byte header variant, n <= 62) and an exact canonical form for
n <= 8: the least packed mask over all vertex relabelings.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64
GRAPH6_MAX_VERTICES = 62
CANONICAL_MAX_VERTICES = 8


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 text."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph; ``adj[i]`` is the neighbor bitset of i."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        if len(self.adj) != n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {i} has a neighbor outside 0..{n - 1}")
            if (row >> i) & 1:
                raise ValueError(f"loop at vertex {i}")
        for i, row in enumerate(self.adj):
            for j in iter_bits(row):
                if not (self.adj[j] >> i) & 1:
                    raise ValueError(f"asymmetric edge ({i}, {j})")

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return bin(self.adj[i]).count("1")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={edge_list(self)})"


def iter_bits(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``x``, lowest first."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered vertex pairs; duplicate pairs collapse."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    rows = [0] * n
    for a, b in edges:
        if a == b:
            raise ValueError(f"loop edge ({a}, {b}) not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) has an endpoint outside 0..{n - 1}")
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n, tuple(rows))


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """Edges as sorted (i, j) pairs with i < j."""
    return [(i, j) for i in range(g.n) for j in iter_bits(g.adj[i]) if j > i]


def is_complete(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return all(row == full ^ (1 << i) for i, row in enumerate(g.adj))


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << i) for i, row in enumerate(g.adj)))


def add_vertex(g: Graph, neighbors: Iterable[int]) -> Graph:
    """Return g plus one new vertex (id n) adjacent to exactly ``neighbors``."""
    n = g.n
    if n + 1 > MAX_VERTICES:
        raise ValueError(f"cannot exceed {MAX_VERTICES} vertices")
    nb = 0
    for v in neighbors:
        if not 0 <= v < n:
            raise ValueError(f"neighbor {v} outside 0..{n - 1}")
        nb |= 1 << v
    rows = [row | (1 << n) if (nb >> i) & 1 else row for i, row in enumerate(g.adj)]
    rows.append(nb)
    return Graph(n + 1, tuple(rows))


def _rows_connected(rows: Sequence[int], full: int) -> bool:
    # Reachability from vertex 0 over raw adjacency rows, so enumeration can
    # test a candidate without building a Graph.
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= rows[b.bit_length() - 1]
            f ^= b
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0; K1 is connected."""
    return _rows_connected(g.adj, (1 << g.n) - 1)


def _distance_matrix(g: Graph) -> list[list[int]]:
    # Row s holds the BFS distances from s, -1 for unreachable vertices; row 0
    # holds a -1 iff g is disconnected.
    adj = g.adj
    n = g.n
    matrix = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        seen = frontier = 1 << s
        d = 0
        while frontier:
            d += 1
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= frontier
            for v in iter_bits(frontier):
                dist[v] = d
        matrix.append(dist)
    return matrix


def diameter(g: Graph) -> int:
    """Largest shortest-path distance over all pairs; rejects disconnected input."""
    dist = _distance_matrix(g)
    if -1 in dist[0]:
        raise ValueError("diameter is undefined for disconnected graphs")
    return max(map(max, dist))


# --- upper-triangle bit packing -------------------------------------------
#
# Column j (1 <= j < n) holds the pairs (0, j), (1, j), ..., (j-1, j), vertex
# 0 as its most significant bit, and the mask is column 1, then column 2,
# and so on: graph6 order.  The first pair is the most significant bit, so
# ascending integer order on masks equals lexicographic order on the bit
# strings and, for fixed n, on graph6 strings.

def triangle_mask(g: Graph) -> int:
    """Pack the upper triangle of the adjacency matrix into one int."""
    adj = g.adj
    mask = 0
    for j in range(1, g.n):
        for i in range(j):
            mask = (mask << 1) | ((adj[i] >> j) & 1)
    return mask


def _mask_rows(n: int, mask: int) -> list[int]:
    # Inverse of triangle_mask: the least significant bit is pair (n-2, n-1).
    rows = [0] * n
    for j in range(n - 1, 0, -1):
        for i in range(j - 1, -1, -1):
            if mask & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            mask >>= 1
    return rows


def from_triangle_mask(n: int, mask: int) -> Graph:
    """Inverse of :func:`triangle_mask`."""
    m = n * (n - 1) // 2
    if mask >> m:
        raise ValueError("mask has bits beyond the upper triangle")
    return Graph(n, tuple(_mask_rows(n, mask)))


# --- graph6 codec ----------------------------------------------------------

def to_graph6(g: Graph) -> str:
    """Encode with a single-byte size header; requires n <= 62."""
    n = g.n
    if n > GRAPH6_MAX_VERTICES:
        raise Graph6Error(f"unsupported size: n={n} exceeds {GRAPH6_MAX_VERTICES}")
    m = n * (n - 1) // 2
    total = ((m + 5) // 6) * 6
    shifted = triangle_mask(g) << (total - m)
    out = [chr(63 + n)]
    for shift in range(total - 6, -1, -6):
        out.append(chr(63 + ((shifted >> shift) & 63)))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (single-byte header variant only)."""
    line = text.rstrip("\r\n")
    if not line:
        raise Graph6Error("empty graph6 string")
    h = ord(line[0])
    if h == 126:
        raise Graph6Error("unsupported size: multi-byte graph6 headers are not accepted")
    if not 63 <= h <= 125:
        raise Graph6Error(f"bad header character {line[0]!r}")
    n = h - 63
    if n == 0:
        raise Graph6Error("order-0 graphs are not supported")
    m = n * (n - 1) // 2
    want = (m + 5) // 6
    data = line[1:]
    if len(data) != want:
        raise Graph6Error(f"expected {want} data characters for n={n}, got {len(data)}")
    mask = 0
    for ch in data:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise Graph6Error(f"bad character {ch!r}")
        mask = (mask << 6) | v
    pad = want * 6 - m
    if pad and mask & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    return from_triangle_mask(n, mask >> pad)


# --- canonical form ---------------------------------------------------------

def _min_columns(n: int, adj: Sequence[int]) -> list[int]:
    # Branch-and-bound over partial relabelings.  Positions are filled left to
    # right; the triangle column of position j is fully determined by the
    # vertices already placed, so any branch whose column exceeds the best
    # known value at that level can be cut.  On the live path the column of
    # each position i < j always equals best[i] (a strictly smaller column
    # overwrites best and clears the deeper levels), which keeps the pruning
    # sound.
    if n == 1:
        return []
    order = sorted(range(n), key=lambda v: (bin(adj[v]).count("1"), v))
    inf = 1 << n
    best = [inf] * n
    chosen = [0] * n

    def place(j: int, used: int) -> None:
        if j == n:
            return
        for u in order:
            bu = 1 << u
            if used & bu:
                continue
            au = adj[u]
            col = 0
            for i in range(j):
                col = (col << 1) | ((au >> chosen[i]) & 1)
            if col > best[j]:
                continue
            if col < best[j]:
                best[j] = col
                for t in range(j + 1, n):
                    best[t] = inf
            chosen[j] = u
            place(j + 1, used | bu)

    place(0, 0)
    return best[1:]


def _columns_to_mask(cols: list[int]) -> int:
    mask = 0
    for j, col in enumerate(cols, start=1):
        mask = (mask << j) | col
    return mask


def _canonical_mask(rows: Sequence[int]) -> int:
    # The least triangle mask over all relabelings of the graph on rows.
    return _columns_to_mask(_min_columns(len(rows), rows))


def canonical_representative(g: Graph) -> Graph:
    """The relabeling of g with the least triangle mask (n <= 8).

    Two graphs are isomorphic iff their representatives are equal.
    """
    if g.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"the canonical form is only guaranteed for n <= {CANONICAL_MAX_VERTICES}, got {g.n}"
        )
    return from_triangle_mask(g.n, _canonical_mask(g.adj))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Apply a vertex permutation: edge (i, j) becomes (perm[i], perm[j])."""
    p = list(perm)
    if sorted(p) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    return from_edges(g.n, [(p[i], p[j]) for i, j in edge_list(g)])
