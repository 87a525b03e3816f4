import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rainbowvc import (
    TheoremViolationError,
    VertexColoring,
    add_vertex,
    complement,
    diameter,
    exists_rainbow_path,
    exists_rainbow_path_oracle,
    find_failing_pair,
    from_edges,
    relabel,
    rgs_colorings,
    rvc_exact,
)
from rainbowvc.constructions import complete_graph, cycle_graph, path_graph, star_graph
from rainbowvc.graphs import _distance_matrix
from rainbowvc.rainbow import _pairs_by_distance, _rainbow_walk, _search

from strategies import colored_graphs, graphs, oracle_is_rainbow, rvc_brute


def find_coloring(g, k):
    # the first coloring with at most k colors that the pruned search accepts
    return _search(g, k, _pairs_by_distance(_distance_matrix(g)))


# --- coloring type ------------------------------------------------------------

def test_coloring_validation():
    VertexColoring(2, (0, 1, 1))
    VertexColoring(0, ())
    with pytest.raises(ValueError):
        VertexColoring(1, (0, 1))
    with pytest.raises(ValueError):
        VertexColoring(0, (0,))
    with pytest.raises(ValueError):
        VertexColoring(-1, ())


# --- rainbow path existence -----------------------------------------------

def test_adjacent_pair_needs_no_colors():
    g = path_graph(4)
    mono = VertexColoring(1, (0, 0, 0, 0))
    assert exists_rainbow_path(g, mono, 0, 1)
    assert exists_rainbow_path(g, mono, 2, 3)


def test_p4_repeat_blocks_the_only_path():
    g = path_graph(4)
    assert not exists_rainbow_path(g, VertexColoring(2, (0, 1, 1, 0)), 0, 3)
    assert exists_rainbow_path(g, VertexColoring(2, (0, 1, 0, 0)), 0, 3)


def test_c5_monochromatic_all_pairs():
    # every pair sits at distance <= 2: one internal vertex at most
    g = cycle_graph(5)
    mono = VertexColoring(1, (0,) * 5)
    for s in range(5):
        for t in range(s + 1, 5):
            assert exists_rainbow_path(g, mono, s, t)


def test_unreachable_pair_is_false():
    g = from_edges(4, [(0, 1), (2, 3)])
    c = VertexColoring(2, (0, 1, 0, 1))
    assert not exists_rainbow_path(g, c, 0, 2)
    assert not exists_rainbow_path_oracle(g, c, 0, 2)


def test_endpoint_validation():
    g = path_graph(3)
    c = VertexColoring(1, (0, 0, 0))
    with pytest.raises(ValueError):
        exists_rainbow_path(g, c, 0, 3)
    with pytest.raises(ValueError):
        exists_rainbow_path(g, c, 1, 1)
    with pytest.raises(ValueError):
        exists_rainbow_path(g, VertexColoring(1, (0, 0)), 0, 2)


@given(colored_graphs(max_n=7))
@settings(max_examples=300)
def test_checker_agrees_with_oracle(gc):
    g, coloring = gc
    for s in range(g.n):
        for t in range(s + 1, g.n):
            assert exists_rainbow_path(g, coloring, s, t) == exists_rainbow_path_oracle(
                g, coloring, s, t
            )


def test_relaxed_check_is_sound_for_partial_colorings():
    # An uncolored vertex (bit 0) is a wildcard: when the relaxed check
    # rejects a pair, no completion of the partial coloring may connect it.
    rng = random.Random(20261018)
    rejected = 0
    for _ in range(400):
        n = rng.randint(3, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = from_edges(n, [p for p in pairs if rng.random() < 0.5])
        k = rng.randint(1, 3)
        partial = [rng.randrange(k) if rng.random() < 0.6 else None for _ in range(n)]
        bits = [0 if c is None else 1 << c for c in partial]
        free = [v for v in range(n) if partial[v] is None]
        for s, t in pairs:
            if _rainbow_walk(g.adj, bits, s, t) is not None:
                continue
            rejected += 1
            for fill in product(range(k), repeat=len(free)):
                colors = list(partial)
                for v, c in zip(free, fill):
                    colors[v] = c
                assert not exists_rainbow_path_oracle(g, VertexColoring(k, tuple(colors)), s, t)
    assert rejected > 100


def test_rainbow_walk_is_a_walk_the_relaxed_check_accepts():
    # A returned walk leaves s, follows edges to t, avoids both endpoints
    # and has pairwise distinct colors on its colored internal vertices
    # (a colored vertex met twice clashes with itself).  Such a walk exists
    # iff some simple s-t path has that property, since cutting out the
    # stretch between two visits of one uncolored vertex keeps it; giving
    # every uncolored vertex a color of its own turns that into the
    # oracle's question, so None must come exactly where the oracle says no.
    rng = random.Random(20261019)
    walks = rejected = 0
    for _ in range(400):
        n = rng.randint(3, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = from_edges(n, [p for p in pairs if rng.random() < 0.5])
        k = rng.randint(1, 3)
        partial = [rng.randrange(k) if rng.random() < 0.6 else None for _ in range(n)]
        bits = [0 if c is None else 1 << c for c in partial]
        fresh = VertexColoring(k + n, tuple(k + v if c is None else c for v, c in enumerate(partial)))
        for s, t in pairs:
            walk = _rainbow_walk(g.adj, bits, s, t)
            assert (walk is not None) == exists_rainbow_path_oracle(g, fresh, s, t)
            if walk is None:
                rejected += 1
                continue
            if (g.adj[s] >> t) & 1:
                assert walk == []
                continue
            route = [s, *walk, t]
            assert all((g.adj[u] >> v) & 1 for u, v in zip(route, route[1:]))
            assert s not in walk and t not in walk
            colored = [partial[v] for v in walk if partial[v] is not None]
            assert len(set(colored)) == len(colored)
            walks += 1
    assert walks > 300 and rejected > 100


def test_checker_agrees_with_oracle_n7_n8_samples():
    rng = random.Random(20240801)
    for _ in range(1000):
        n = rng.choice((7, 8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.4]
        g = from_edges(n, edges)
        k = rng.randint(1, 3)
        c = VertexColoring(k, tuple(rng.randrange(k) for _ in range(n)))
        s, t = rng.sample(range(n), 2)
        assert exists_rainbow_path(g, c, s, t) == exists_rainbow_path_oracle(g, c, s, t)


# --- whole-graph checker ---------------------------------------------------

def test_complete_graph_empty_palette():
    assert find_failing_pair(complete_graph(5), VertexColoring(0, ())) is None
    assert find_failing_pair(path_graph(3), VertexColoring(0, ())) == (0, 2)


def test_p5_injective_internals():
    assert find_failing_pair(path_graph(5), VertexColoring(3, (0, 0, 1, 2, 0))) is None


def test_p5_two_colors_never_enough():
    g = path_graph(5)
    for colors in rgs_colorings(5, 2):
        assert find_failing_pair(g, VertexColoring(2, colors)) is not None


def test_disconnected_is_not_rainbow_connected():
    g = from_edges(4, [(0, 1), (2, 3)])
    assert find_failing_pair(g, VertexColoring(4, (0, 1, 2, 3))) == (0, 2)


def test_find_failing_pair_lexicographic():
    g = path_graph(4)
    assert find_failing_pair(g, VertexColoring(2, (0, 1, 1, 0))) == (0, 3)
    assert find_failing_pair(g, VertexColoring(3, (0, 0, 1, 0))) is None


@given(graphs(min_n=1, max_n=8, connected=True))
def test_injective_coloring_always_works(g):
    c = VertexColoring(g.n, tuple(range(g.n)))
    assert find_failing_pair(g, c) is None


# --- fixed-k search ------------------------------------------------------------

def test_rgs_enumeration_small():
    assert list(rgs_colorings(1, 3)) == [(0,)]
    assert list(rgs_colorings(3, 2)) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    assert list(rgs_colorings(2, 0)) == []


@pytest.mark.parametrize("n,k", [(1, 2), (4, 2), (5, 3), (6, 4)])
def test_rgs_prune_skips_exactly_the_extensions(n, k):
    full = list(rgs_colorings(n, k))
    assert list(rgs_colorings(n, k, prune=lambda buf, i: False)) == full
    for i in range(n):
        for prefix in sorted({c[: i + 1] for c in full}):
            def prune(buf, j, i=i, prefix=prefix):
                return j == i and tuple(buf[: i + 1]) == prefix

            kept = list(rgs_colorings(n, k, prune=prune))
            assert kept == [c for c in full if c[: i + 1] != prefix]


def test_find_rainbow_coloring_p5():
    assert find_coloring(path_graph(5), 2) is None
    found = find_coloring(path_graph(5), 3)
    assert found is not None
    assert find_failing_pair(path_graph(5), found) is None


def test_find_rainbow_coloring_c5_single_color():
    assert find_coloring(cycle_graph(5), 1) == VertexColoring(1, (0,) * 5)


def test_find_rainbow_coloring_deterministic():
    g = cycle_graph(7)
    assert find_coloring(g, 3) == find_coloring(g, 3)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_success_is_monotone_in_k(data):
    g = data.draw(graphs(min_n=2, max_n=6, connected=True))
    k = data.draw(st.integers(1, g.n - 1))
    if find_coloring(g, k) is not None:
        assert find_coloring(g, k + 1) is not None


# --- exact solver ---------------------------------------------------------------

def test_rvc_complete_graphs_are_zero():
    res = rvc_exact(complete_graph(7))
    assert res.value == 0
    assert res.lower_bound_reason == "complete-graph"
    assert res.witness == VertexColoring(0, ())


@pytest.mark.parametrize("n", range(3, 14))
def test_rvc_paths(n):
    assert rvc_exact(path_graph(n)).value == n - 2


def test_rvc_star_and_cycle():
    assert rvc_exact(star_graph(5)).value == 1
    assert rvc_exact(cycle_graph(5)).value == 1


def test_rvc_cycles_with_slack():
    # C6 meets the diameter bound; C7 needs one color more than it
    assert rvc_exact(cycle_graph(6)).value == 2
    res = rvc_exact(cycle_graph(7))
    assert res.value == 3
    assert res.lower_bound_reason == "exhausted-k"
    assert res.exhausted == (2,)


# C_3..C_12 are the values the unpruned search gave; C_13 and C_14 agree
# with the closed form for rvc(C_n) of X. Li and S. Liu (Discrete Appl.
# Math. 2014), ceil(n/2) - 1 for n = 13 and n/2 for n = 14.  C_7, C_11,
# C_13 and C_14 refute one k below their value.
CYCLE_RVC = {3: 0, 4: 1, 5: 1, 6: 2, 7: 3, 8: 3, 9: 3, 10: 4, 11: 5, 12: 5, 13: 6, 14: 7}


@pytest.mark.parametrize("n", sorted(CYCLE_RVC))
def test_rvc_cycles_pinned(n):
    res = rvc_exact(cycle_graph(n))
    assert res.value == CYCLE_RVC[n]
    assert res.exhausted == {7: (2,), 11: (4,), 13: (5,), 14: (6,)}.get(n, ())


def test_rvc_spider_is_n_minus_leaves():
    # six legs of length 2 around vertex 0: a tree with n = 13 and 6 leaves,
    # so rvc = n - #leaves = 7 (Krivelevich and Yuster); the diameter bound
    # is 3, so 3..6 are refuted exhaustively
    edges = [e for leg in range(6) for e in ((0, 2 * leg + 1), (2 * leg + 1, 2 * leg + 2))]
    res = rvc_exact(from_edges(13, edges))
    assert res.value == 7
    assert res.exhausted == (3, 4, 5, 6)


def test_search_matches_unpruned_oracle_scan():
    # The pruned search must return the first restricted-growth coloring,
    # unpruned and in order, that the brute-force oracle accepts.
    from rainbowvc import enumerate_connected_graphs

    checked = 0
    for n in range(3, 7):
        for g in enumerate_connected_graphs(n):
            for k in range(1, n - 1):
                expected = next(
                    (c for c in rgs_colorings(n, k) if oracle_is_rainbow(g, VertexColoring(k, c))),
                    None,
                )
                found = find_coloring(g, k)
                assert (found.colors if found else None) == expected
                checked += 1
    assert checked == 2 * 1 + 6 * 2 + 21 * 3 + 112 * 4


def _uncached_leaves(g, k, pairs):
    # the culprit search with a fresh relaxed check of every culprit on
    # every prefix and no walk cache
    n, adj = g.n, g.adj
    culprits = []

    def prune(buf, i):
        bits = [1 << c for c in buf[: i + 1]] + [0] * (n - 1 - i)
        return any(_rainbow_walk(adj, bits, s, t) is None for s, t in culprits)

    leaves = []
    for colors in rgs_colorings(n, k, prune):
        leaves.append(colors)
        bits = [1 << c for c in colors]
        pair = next((p for p in pairs if _rainbow_walk(adj, bits, *p) is None), None)
        if pair is None:
            break
        culprits.append(pair)
    return leaves


def test_walk_cache_reaches_the_same_leaves(monkeypatch):
    # _search reuses each culprit's last accepted walk while it stays good;
    # it must reach exactly the leaves, in order, of the search without it.
    import rainbowvc.rainbow as rainbow
    from rainbowvc import enumerate_connected_graphs

    reached = []

    def recording(n, k, prune=None):
        for colors in rgs_colorings(n, k, prune):
            reached.append(colors)
            yield colors

    monkeypatch.setattr(rainbow, "rgs_colorings", recording)
    checked = 0
    for n in range(3, 7):
        for g in enumerate_connected_graphs(n):
            pairs = _pairs_by_distance(_distance_matrix(g))
            for k in range(1, n - 1):
                reached.clear()
                rainbow._search(g, k, pairs)
                assert reached == _uncached_leaves(g, k, pairs)
                checked += 1
    assert checked == 2 * 1 + 6 * 2 + 21 * 3 + 112 * 4


def test_rvc_diameter_matches_networkx():
    # independent oracle: every connected graph of the networkx atlas, n <= 6
    nx = pytest.importorskip("networkx")
    checked = 0
    for ref in nx.graph_atlas_g():
        n = ref.number_of_nodes()
        if not 1 <= n <= 6 or not nx.is_connected(ref):
            continue
        assert rvc_exact(from_edges(n, ref.edges())).diameter == nx.diameter(ref)
        checked += 1
    assert checked == 1 + 1 + 2 + 6 + 21 + 112
    assert rvc_exact(complete_graph(1)).diameter == 0
    assert all(rvc_exact(complete_graph(n)).diameter == 1 for n in range(2, 7))


def test_rvc_rejects_disconnected():
    with pytest.raises(ValueError):
        rvc_exact(from_edges(4, [(0, 1), (2, 3)]))


def test_rvc_witness_passes_checker():
    for g in [path_graph(6), cycle_graph(7), star_graph(6)]:
        res = rvc_exact(g)
        assert res.witness.k == res.value
        assert find_failing_pair(g, res.witness) is None


def test_rvc_matches_brute_force_small():
    from rainbowvc import enumerate_connected_graphs

    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            assert rvc_exact(g).value == rvc_brute(g)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rvc_isomorphism_invariant(data):
    g = data.draw(graphs(min_n=2, max_n=6, connected=True))
    perm = data.draw(st.permutations(range(g.n)))
    assert rvc_exact(relabel(g, perm)).value == rvc_exact(g).value


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rvc_bounds(data):
    g = data.draw(graphs(min_n=2, max_n=6, connected=True))
    value = rvc_exact(g).value
    d = diameter(g)
    assert value >= d - 1
    assert value <= g.n - 2 or g.n == 1
    if d <= 2:
        assert value == d - 1


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_vertex_addition_costs_at_most_one(data):
    g = data.draw(graphs(min_n=2, max_n=5, connected=True))
    nbrs = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    extended = add_vertex(g, nbrs)
    assert rvc_exact(extended).value <= rvc_exact(g).value + 1


def test_oracle_is_rainbow_matches_checker_on_complement_pairs():
    for g in [path_graph(5), cycle_graph(5)]:
        res = rvc_exact(complement(g))
        assert oracle_is_rainbow(complement(g), res.witness)
