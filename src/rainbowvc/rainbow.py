"""Exact rainbow vertex-connectivity checking and solving.

A vertex-colored graph is rainbow vertex-connected when every pair of
distinct vertices is joined by a path whose internal vertices all carry
distinct colors; endpoint colors never matter.  rvc(g) is the least number
of colors achieving this, 0 exactly for complete graphs, and it always
satisfies diam(g) - 1 <= rvc(g) <= n - 2 for connected non-complete g.

Two independent path checkers are provided.  The fast one searches the
state space (current vertex, set of colors used by internal vertices so
far); on a full coloring, internal colors are pairwise distinct along any
accepted walk, so the internal vertices are automatically distinct and
every accepted state sequence corresponds to a simple path.  The oracle
enumerates all simple paths outright and exists purely to cross-examine
the fast checker.

The fast checker reads one color bitmask per vertex, 0 meaning uncolored.
An uncolored vertex is a wildcard that clashes with no color, which makes
the check a relaxation: if some completion of a partial coloring has a
rainbow s-t path, its internal vertices carry distinct colors, so their
colored subset does too, and the relaxed search reaches t along the same
vertices (its used-color set is a subset of the completion's at each
step).  An accepted walk may repeat uncolored vertices, which only makes
the check accept more.  Contrapositively, a pair that fails the relaxed
check fails under every completion.  With every vertex colored the check
is exact.

The solver enumerates candidate colorings as restricted growth strings
(vertex 0 fixed to color 0, each later vertex at most one above the
running maximum, capped at k colors), which quotients out the k! color
renamings, depth first in lexicographic order.  Each search over one k
keeps its culprits, in the order found: every pair that was the first,
in distance order, to fail the exact check at some complete coloring.
After each vertex is colored the culprits get the relaxed check, and by
the argument above a failing culprit rules out every completion of the
prefix, so the subtree is skipped.  A complete coloring that survives
still gets the exact check over all pairs.  Only colorings that cannot
pass are skipped and the order of the rest is unchanged, so the first
coloring to pass, and with it every witness and every rvc value, is the
one the unpruned scan finds.  Culprits only, not all pairs, get the
relaxed check: most searches pass at their first complete coloring, and
while there are no culprits the check only records the new color.

The fast checker returns the internal vertices of the walk it accepted,
and each search keeps every culprit's last accepted walk.  At the next
prefix the walk is checked again in time linear in its length: it is
still good if its colored internal vertices carry pairwise distinct colors,
a colored vertex met twice counting as a clash.  The graph and the
culprit's endpoints do not change within a search, so a still-good walk
is exactly a walk the relaxed search would accept on the new prefix; the
culprit passes without a search, as it would have with one.  Otherwise the
search runs and its walk, if any, replaces the cached one.  Every prune
decision is therefore the one the uncached check makes, and the leaves
reached, their order and the witnesses are unchanged.
"""

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .graphs import Graph, _distance_matrix, iter_bits


class TheoremViolationError(RuntimeError):
    """A bound that provably holds failed; indicates a solver defect."""


REASON_COMPLETE = "complete-graph"
REASON_DIAMETER = "diameter-minus-one"
REASON_EXHAUSTED = "exhausted-k"


@dataclass(frozen=True)
class VertexColoring:
    """Total assignment of colors 0..k-1 to vertices (0-based internally).

    k = 0 carries an empty color sequence; it can only ever satisfy the
    checker on complete graphs, where no path needs an internal vertex.
    """

    k: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("color count must be nonnegative")
        if self.k == 0:
            if self.colors:
                raise ValueError("an empty palette cannot color any vertex")
        elif any(not 0 <= c < self.k for c in self.colors):
            raise ValueError(f"colors must lie in 0..{self.k - 1}")


@dataclass(frozen=True)
class RvcResult:
    """Exact rvc value with a witness coloring and the optimality argument.

    ``lower_bound_reason`` is one of ``complete-graph`` (value 0),
    ``diameter-minus-one`` (value met the diameter bound, nothing below it
    was tried), or ``exhausted-k`` (every k in ``exhausted`` was searched
    and failed before the value succeeded).  ``diameter`` is the graph's
    diameter, taken from the same all-pairs BFS that gives the lower bound
    and the pair order of the search.
    """

    value: int
    witness: VertexColoring
    lower_bound_reason: str
    diameter: int
    exhausted: tuple[int, ...] = ()


def _check_endpoints(g: Graph, s: int, t: int) -> None:
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"endpoints ({s}, {t}) outside 0..{g.n - 1}")
    if s == t:
        raise ValueError("endpoints must be distinct")


def _check_coloring(g: Graph, coloring: VertexColoring) -> None:
    if coloring.k > 0 and len(coloring.colors) != g.n:
        raise ValueError(
            f"coloring has {len(coloring.colors)} entries for {g.n} vertices"
        )


def _rainbow_walk(
    adj: Sequence[int], bits: Sequence[int], s: int, t: int
) -> Optional[list[int]]:
    # Internal vertices, s side first, of a walk the relaxed check accepts
    # (see the module docstring), or None.  bits[v] is vertex v's color as a
    # one-bit mask, 0 if uncolored.  States are (vertex, used-color bitmask)
    # pairs packed into one int; the vertex fits in 6 bits because n <= 64.
    # At most n * 2^k states exist; parent maps each to the state it was
    # reached from, -1 for the first step out of s.
    if (adj[s] >> t) & 1:
        return []
    excl = ~((1 << s) | (1 << t))
    stack: list[int] = []
    parent: dict[int, int] = {}
    rest = adj[s] & excl
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        key = (bits[v] << 6) | v
        parent[key] = -1
        stack.append(key)
    while stack:
        key = stack.pop()
        v = key & 63
        if (adj[v] >> t) & 1:
            walk = []
            while key >= 0:
                walk.append(key & 63)
                key = parent[key]
            walk.reverse()
            return walk
        used = key >> 6
        rest = adj[v] & excl
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            cb = bits[w]
            if used & cb:
                continue
            nxt = ((used | cb) << 6) | w
            if nxt not in parent:
                parent[nxt] = key
                stack.append(nxt)
    return None


def _color_bits(colors: Sequence[int]) -> list[int]:
    return [1 << c for c in colors]


def exists_rainbow_path(g: Graph, coloring: VertexColoring, s: int, t: int) -> bool:
    """True iff some s-t path has pairwise distinct internal colors.

    Adjacent endpoints always qualify; unreachable pairs never do.
    """
    _check_endpoints(g, s, t)
    _check_coloring(g, coloring)
    if (g.adj[s] >> t) & 1:
        return True
    if coloring.k == 0:
        return False
    return _rainbow_walk(g.adj, _color_bits(coloring.colors), s, t) is not None


def exists_rainbow_path_oracle(g: Graph, coloring: VertexColoring, s: int, t: int) -> bool:
    """Same contract as :func:`exists_rainbow_path` by brute enumeration.

    Walks every simple s-t path and tests its internal colors directly;
    intended for small n as an independent cross-check.
    """
    _check_endpoints(g, s, t)
    _check_coloring(g, coloring)
    adj = g.adj
    colors = coloring.colors
    k = coloring.k
    inner: list[int] = []

    def search(v: int, visited: int) -> bool:
        for w in iter_bits(adj[v]):
            if visited & (1 << w):
                continue
            if w == t:
                if not inner:
                    return True
                if k > 0:
                    cs = [colors[u] for u in inner]
                    if len(set(cs)) == len(cs):
                        return True
            else:
                inner.append(w)
                if search(w, visited | (1 << w)):
                    return True
                inner.pop()
        return False

    return search(s, 1 << s)


def _pairs_by_distance(dist: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    # Distant pairs are the hardest to connect, so test them first.
    n = len(dist)
    keyed = sorted((-dist[s][t], s, t) for s in range(n) for t in range(s + 1, n))
    return [(s, t) for _, s, t in keyed]


def _first_failing(
    adj: Sequence[int], bits: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> Optional[tuple[int, int]]:
    for pair in pairs:
        if _rainbow_walk(adj, bits, *pair) is None:
            return pair
    return None


def find_failing_pair(g: Graph, coloring: VertexColoring) -> Optional[tuple[int, int]]:
    """Lexicographically first pair with no rainbow path, or None.

    None means g is rainbow vertex-connected under the coloring; a
    disconnected g always has a failing pair.
    """
    _check_coloring(g, coloring)
    n, adj = g.n, g.adj
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    if coloring.k == 0:
        # without colors a path may have no internal vertex
        return next(((s, t) for s, t in pairs if not (adj[s] >> t) & 1), None)
    return _first_failing(adj, _color_bits(coloring.colors), pairs)


def rgs_colorings(
    n: int, k: int, prune: Optional[Callable[[list[int], int], bool]] = None
) -> Iterator[tuple[int, ...]]:
    """All colorings of n vertices with at most k colors, up to color renaming.

    Restricted growth order: vertex 0 gets color 0 and vertex i may use at
    most one color beyond the maximum used so far.  Yields in lexicographic
    order, which fixes the deterministic tie-break for witnesses.

    With ``prune``, ``prune(buf, i)`` is called each time vertex i (0
    included) has been given its color in the list ``buf``, where
    ``buf[:i + 1]`` is the current prefix and later entries are stale.  When
    it returns True, no coloring extending that prefix is yielded; the
    others come out in the same order as without the hook.  ``prune`` must
    not modify ``buf``.
    """
    if n < 1 or k < 1:
        return
    buf = [0] * n

    def grow(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(buf)
            return
        top = min(mx + 1, k - 1)
        for c in range(top + 1):
            buf[i] = c
            if prune is not None and prune(buf, i):
                continue
            yield from grow(i + 1, mx if c <= mx else c)

    if prune is None or not prune(buf, 0):
        yield from grow(1, 0)


def _search(g: Graph, k: int, pairs: Sequence[tuple[int, int]]) -> Optional[VertexColoring]:
    # Depth-first restricted-growth search pruned by the culprit rule of the
    # module docstring, each culprit mapped to its last accepted walk (None
    # until one is found).  bits holds the color bits of the current prefix,
    # 0 past it.  rgs_colorings is looked up as a module global on every
    # call, so a wrapper installed over it sees every search.
    adj = g.adj
    n = g.n
    bits = [0] * n
    culprits: dict[tuple[int, int], Optional[list[int]]] = {}

    def prune(buf: list[int], i: int) -> bool:
        bits[i] = 1 << buf[i]
        bits[i + 1 :] = [0] * (n - 1 - i)
        for pair, walk in culprits.items():
            if walk is not None:
                used = 0
                for v in walk:
                    cb = bits[v]
                    if used & cb:
                        break
                    used |= cb
                else:
                    continue
            walk = _rainbow_walk(adj, bits, *pair)
            if walk is None:
                return True
            culprits[pair] = walk
        return False

    for colors in rgs_colorings(n, k, prune):
        pair = _first_failing(adj, bits, pairs)
        if pair is None:
            return VertexColoring(k, colors)
        # prune(buf, n - 1) just filled bits and passed every culprit, so
        # this pair is new
        culprits[pair] = None
    return None


def rvc_exact(g: Graph) -> RvcResult:
    """Smallest k admitting a rainbow k-vertex-coloring, with witness.

    Searches k upward from the lower bound (0 for complete graphs, else
    diameter - 1).  A connected non-complete graph always succeeds by
    k = n - 2; running past that bound raises TheoremViolationError.
    """
    dist = _distance_matrix(g)
    if -1 in dist[0]:
        raise ValueError("rvc is undefined for disconnected graphs")
    diam = max(map(max, dist))
    if diam <= 1:  # a connected graph of diameter at most 1 is complete
        return RvcResult(0, VertexColoring(0, ()), REASON_COMPLETE, diam)
    lo = diam - 1
    pairs = _pairs_by_distance(dist)
    tried: list[int] = []
    for k in range(lo, g.n - 1):
        witness = _search(g, k, pairs)
        if witness is not None:
            reason = REASON_DIAMETER if k == lo else REASON_EXHAUSTED
            return RvcResult(k, witness, reason, diam, tuple(tried))
        tried.append(k)
    raise TheoremViolationError(
        f"no rainbow coloring with at most n-2 = {g.n - 2} colors on a "
        "connected non-complete graph"
    )
