from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from rainbowvc import (
    Graph6Error,
    add_vertex,
    canonical_representative,
    complement,
    diameter,
    edge_list,
    from_edges,
    from_triangle_mask,
    is_connected,
    parse_graph6,
    relabel,
    to_graph6,
    triangle_mask,
)
from rainbowvc.constructions import complete_graph, cycle_graph, path_graph, star_graph

from strategies import all_labeled_graphs, graphs, perm_min_edge_key


# --- construction ---------------------------------------------------------

def test_from_edges_k2():
    g = from_edges(2, [(0, 1)])
    assert g.n == 2 and g.has_edge(0, 1) and g.has_edge(1, 0)


def test_from_edges_c5_wiring():
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert all(g.degree(v) == 2 for v in range(5))


def test_singleton_is_connected_diameter_zero():
    g = from_edges(1, [])
    assert is_connected(g)
    assert diameter(g) == 0


def test_duplicate_edges_collapse():
    assert from_edges(3, [(0, 1), (1, 0), (0, 1)]) == from_edges(3, [(0, 1)])


@pytest.mark.parametrize(
    "n,edges",
    [(0, []), (65, []), (3, [(0, 0)]), (3, [(0, 3)]), (3, [(-1, 2)])],
)
def test_from_edges_rejects_bad_input(n, edges):
    with pytest.raises(ValueError):
        from_edges(n, edges)


def test_add_vertex():
    g = add_vertex(path_graph(3), [0, 2])
    assert g.n == 4 and g.has_edge(3, 0) and g.has_edge(3, 2) and not g.has_edge(3, 1)


# --- complement -----------------------------------------------------------

def test_complement_of_complete_is_empty():
    assert edge_list(complement(complete_graph(4))) == []


def test_c5_self_complementary():
    c5 = cycle_graph(5)
    assert canonical_representative(c5) == canonical_representative(complement(c5))


def test_complement_involution_exact_on_p6():
    p6 = path_graph(6)
    assert complement(complement(p6)) == p6


@given(graphs(max_n=8))
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_large_diameter_forces_small_complement_diameter():
    # exhaustive over every labeled graph on up to 6 vertices: diameter 3 or
    # more forces a connected complement of diameter at most 3, and diameter
    # 4 or more pushes the complement down to diameter at most 2 (P4 and its
    # kin sit at 3/3, so the 3-implies-2 variant would be false)
    for n in range(2, 7):
        for g in all_labeled_graphs(n):
            if not is_connected(g):
                continue
            d = diameter(g)
            if d >= 3:
                gbar = complement(g)
                assert is_connected(gbar)
                dbar = diameter(gbar)
                assert dbar <= 3
                if d >= 4:
                    assert dbar <= 2


# --- connectivity and diameter ---------------------------------------------

def test_path_connected():
    assert is_connected(path_graph(5))


def test_two_disjoint_edges_disconnected():
    assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))


def test_complement_of_claw_disconnected():
    # complement of K_{1,3} is a triangle plus an isolated vertex
    assert not is_connected(complement(star_graph(4)))


def test_diameter_values():
    assert diameter(path_graph(5)) == 4
    assert diameter(complete_graph(6)) == 1
    for n in range(5, 11):
        assert diameter(complement(path_graph(n))) == 2


def test_diameter_rejects_disconnected():
    with pytest.raises(ValueError):
        diameter(from_edges(4, [(0, 1), (2, 3)]))


# --- graph6 codec -----------------------------------------------------------

def test_parse_graph6_k2_and_empty():
    assert edge_list(parse_graph6("A_")) == [(0, 1)]
    assert edge_list(parse_graph6("A?")) == []


def test_parse_graph6_known_strings():
    assert parse_graph6("DhC") == path_graph(5)
    assert parse_graph6("D~{") == complete_graph(5)
    assert to_graph6(from_edges(1, [])) == "@"


def test_round_trip_all_small_graphs():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            s = to_graph6(g)
            assert parse_graph6(s) == g
            assert to_graph6(parse_graph6(s)) == s


@given(graphs(max_n=10))
def test_round_trip_random(g):
    assert parse_graph6(to_graph6(g)) == g


@pytest.mark.parametrize(
    "text",
    [
        "",
        "~??",  # multi-byte header
        "A",  # missing data character
        "A??",  # extra data character
        "A@",  # nonzero padding bits
        "A\x1f",  # character below 63
        "?",  # order 0
        "B\x7f?",
    ],
)
def test_parse_graph6_rejects(text):
    with pytest.raises(Graph6Error):
        parse_graph6(text)


def test_multibyte_header_message():
    with pytest.raises(Graph6Error, match="unsupported size"):
        parse_graph6("~" + "?" * 10)


def test_to_graph6_rejects_large():
    with pytest.raises(Graph6Error):
        to_graph6(from_edges(63, [(0, 1)]))


def test_codec_against_networkx():
    nx = pytest.importorskip("networkx")
    for g in [path_graph(7), cycle_graph(6), complete_graph(5), star_graph(6)]:
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))  # node order defines the encoding
        ref.add_edges_from(edge_list(g))
        expected = nx.to_graph6_bytes(ref, header=False).decode().strip()
        assert to_graph6(g) == expected
        back = nx.from_graph6_bytes(to_graph6(g).encode())
        assert sorted(map(tuple, map(sorted, back.edges()))) == edge_list(g)


# --- canonical form -----------------------------------------------------------

def test_p4_self_complementary():
    p4 = path_graph(4)
    assert canonical_representative(p4) == canonical_representative(complement(p4))


def test_star_relabelings_agree():
    a = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    b = from_edges(4, [(2, 0), (2, 1), (2, 3)])
    assert canonical_representative(a) == canonical_representative(b)


def test_canonical_form_orders_never_collide():
    # Graph equality includes n, so empty graphs of two orders stay apart
    # although their triangle masks are both 0
    assert canonical_representative(from_edges(3, [])) != canonical_representative(
        from_edges(4, [])
    )


def test_canonical_form_rejects_large():
    with pytest.raises(ValueError):
        canonical_representative(from_edges(9, [(0, 1)]))


def test_canonical_representative_is_fixed_point():
    for g in [path_graph(6), cycle_graph(7), star_graph(5)]:
        rep = canonical_representative(g)
        assert canonical_representative(rep) == rep


@given(st.data())
@settings(max_examples=60)
def test_canonical_form_permutation_invariant(data):
    g = data.draw(graphs(min_n=2, max_n=7))
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_representative(relabel(g, perm)) == canonical_representative(g)


@given(st.data())
@settings(max_examples=5, deadline=None)
def test_canonical_form_permutation_invariant_n8(data):
    g = data.draw(graphs(min_n=8, max_n=8))
    perm = data.draw(st.permutations(range(8)))
    assert canonical_representative(relabel(g, perm)) == canonical_representative(g)


def test_canonical_form_matches_permutation_scan_oracle():
    # dual implementation: minimized edge tuples vs minimized bit strings
    for n in (4, 5):
        by_oracle = {}
        for g in all_labeled_graphs(n):
            by_oracle.setdefault(perm_min_edge_key(g), set()).add(canonical_representative(g))
        assert all(len(forms) == 1 for forms in by_oracle.values())
        assert len({next(iter(f)) for f in by_oracle.values()}) == len(by_oracle)


def test_triangle_mask_round_trip():
    for g in [path_graph(5), cycle_graph(6), complete_graph(4)]:
        assert from_triangle_mask(g.n, triangle_mask(g)) == g


def test_canonical_representative_is_minimal_relabeling():
    # brute-force oracle: the least triangle mask over all n! relabelings,
    # computed without the branch-and-bound minimizer
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            least = min(triangle_mask(relabel(g, p)) for p in permutations(range(n)))
            assert triangle_mask(canonical_representative(g)) == least
