from itertools import combinations

import pytest

from rainbowvc import canonical_representative, complement, diameter, edge_list, rvc_exact
from rainbowvc.constructions import (
    complement_pair,
    complete_graph,
    cycle_graph,
    diameter_two_graph,
    lower_bound_pair,
    path_complement_pair,
    path_graph,
    star_graph,
    verify_extension_bound,
)


# --- families ---------------------------------------------------------------

def test_path_two_is_complete_two():
    assert path_graph(2) == complete_graph(2)


def test_star_diameter():
    assert diameter(star_graph(5)) == 2


@pytest.mark.parametrize("build,n", [(path_graph, 0), (cycle_graph, 2), (star_graph, 0), (complete_graph, 0)])
def test_family_input_validation(build, n):
    with pytest.raises(ValueError):
        build(n)


# --- path + complement: the top of the range ------------------------------

def test_path_pair_n5():
    pair = path_complement_pair(5)
    assert (pair.rvc_g, pair.rvc_gbar, pair.sum) == (3, 1, 4)


def test_path_pair_n8():
    pair = path_complement_pair(8)
    assert (pair.rvc_g, pair.rvc_gbar, pair.sum) == (6, 1, 7)


def test_path_pair_rejects_small_n():
    with pytest.raises(ValueError):
        path_complement_pair(4)


def test_p4_pair_overshoots_without_the_order_hypothesis():
    # P4 is self-complementary with rvc 2, so the pair sums to 4 > n - 1 = 3
    pair = complement_pair(path_graph(4))
    assert pair.sum == 4 and pair.sum > pair.n - 1


# --- diameter-two construction: the bottom of the range ----------------------

def test_diameter_two_n5_is_the_five_cycle():
    assert canonical_representative(diameter_two_graph(5)) == canonical_representative(
        cycle_graph(5)
    )


@pytest.mark.parametrize("n", range(5, 13))
def test_diameter_two_both_sides(n):
    g = diameter_two_graph(n)
    assert diameter(g) == 2
    assert diameter(complement(g)) == 2


def test_diameter_two_edge_structure_n7():
    g = diameter_two_graph(7)
    # hub 0 to spokes 1..3, matching to 4..6, clique on 4..6
    assert g.degree(0) == 3
    assert len(edge_list(g)) == 3 + 3 + 3


def test_diameter_two_rejects_small_n():
    with pytest.raises(ValueError):
        diameter_two_graph(4)


@pytest.mark.parametrize("n", [5, 9, 12])
def test_lower_bound_pair_sum_two(n):
    pair = lower_bound_pair(n)
    assert pair.sum == 2
    assert pair.rvc_g == pair.rvc_gbar == 1


def test_complement_pair_requires_both_sides_connected():
    with pytest.raises(ValueError):
        complement_pair(star_graph(4))


# --- one-vertex extension bound ----------------------------------------------

def test_extension_complete_base():
    report = verify_extension_bound(complete_graph(4), [0, 1, 2, 3])
    assert report.rvc_base == 0 and report.q == 4
    assert report.premise_holds and report.conclusion_holds
    assert report.rvc_extended == 0
    assert not report.violation


def test_extension_c5_any_four_neighbors():
    g = cycle_graph(5)
    for nbrs in combinations(range(5), 4):
        report = verify_extension_bound(g, nbrs)
        assert report.premise_holds  # q = 4 >= n - k = 5 - 1
        assert report.rvc_extended <= 1
        assert not report.violation


def test_extension_p5_any_two_neighbors():
    g = path_graph(5)
    assert rvc_exact(g).value == 3
    for nbrs in combinations(range(5), 2):
        report = verify_extension_bound(g, nbrs)
        assert report.premise_holds  # q = 2 >= n - k = 5 - 3
        assert report.conclusion_holds
        assert not report.violation


def test_extension_input_validation():
    with pytest.raises(ValueError):
        verify_extension_bound(path_graph(3), [])
    from rainbowvc import from_edges

    with pytest.raises(ValueError):
        verify_extension_bound(from_edges(4, [(0, 1), (2, 3)]), [0])
