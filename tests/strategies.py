"""Shared hypothesis strategies and brute-force helpers."""

from functools import cache
from itertools import combinations, permutations, product

from hypothesis import assume, strategies as st

from rainbowvc import (
    VertexColoring,
    complement,
    exists_rainbow_path_oracle,
    from_edges,
    is_complete,
    is_connected,
)


@st.composite
def graphs(draw, min_n=1, max_n=8, connected=False):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
    if connected:
        assume(is_connected(g))
    return g


@st.composite
def colored_graphs(draw, min_n=2, max_n=8, max_k=3, connected=False):
    g = draw(graphs(min_n=min_n, max_n=max_n, connected=connected))
    k = draw(st.integers(1, max_k))
    colors = draw(st.tuples(*[st.integers(0, k - 1) for _ in range(g.n)]))
    return g, VertexColoring(k, colors)


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


@cache
def labeled_connected_graphs(n, complement_too=False):
    """Every connected labeled order-n graph (with a connected complement
    too, if asked), by filtering all_labeled_graphs: the labeled walk the
    class enumerators are checked against.  Built once per argument pair."""
    return tuple(
        g
        for g in all_labeled_graphs(n)
        if is_connected(g) and (not complement_too or is_connected(complement(g)))
    )


def perm_min_edge_key(g):
    """Isomorphism key by direct minimization over relabeled edge tuples.

    Deliberately avoids the triangle bit packing used by
    canonical_representative so the two can cross-examine each other.
    """
    edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.has_edge(i, j)]
    best = None
    for p in permutations(range(g.n)):
        cand = tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
        if best is None or cand < best:
            best = cand
    return best


def oracle_is_rainbow(g, coloring):
    if not is_connected(g):
        return False
    return all(
        exists_rainbow_path_oracle(g, coloring, s, t)
        for s in range(g.n)
        for t in range(s + 1, g.n)
    )


def rvc_brute(g):
    """Minimum color count by full k^n enumeration with the oracle checker."""
    if is_complete(g):
        return 0
    for k in range(1, g.n - 1):
        for colors in product(range(k), repeat=g.n):
            if oracle_is_rainbow(g, VertexColoring(k, colors)):
                return k
    raise AssertionError("connected non-complete graph exceeded n - 2 colors")
