import hashlib

import pytest

from rainbowvc import (
    IngestError,
    canonical_representative,
    census_run,
    complement,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_graphs,
    from_edges,
    ingest_graph6,
    path_graph,
    records_to_csv,
    relabel,
    summary_to_dict,
    to_graph6,
    triangle_mask,
)
from rainbowvc.census import CSV_HEADER

from strategies import all_labeled_graphs, labeled_connected_graphs, perm_min_edge_key

# sha256 of records_to_csv, pinned so any change to a record value, the
# record order or the CSV format fails here
N5_LABELED_CSV_SHA256 = "5fdf447ad7dddc1584e0bd82fab9c980958b391fc9df8db92461315e6203313c"
N6_DEDUP_CSV_SHA256 = "9013eb137b49c01928fefa82e2e160c74e86f2175890f223139f0ae9bc2b4ae9"
N7_DEDUP_CSV_SHA256 = "078a929995d88bc3cc0dd41717aa654ea4d948a8784c6aafa066615669e7d57b"


def csv_sha256(records) -> str:
    return hashlib.sha256(records_to_csv(records).encode("ascii")).hexdigest()


# --- enumeration ----------------------------------------------------------

def test_n4_single_class_is_p4():
    reps = list(enumerate_graphs(4))
    assert len(reps) == 1
    assert reps[0] == canonical_representative(path_graph(4))


def test_n2_and_n3_are_empty():
    assert list(enumerate_graphs(2)) == []
    assert list(enumerate_graphs(3)) == []


def test_enumeration_range_validation():
    with pytest.raises(ValueError):
        list(enumerate_graphs(1))
    with pytest.raises(ValueError):
        list(enumerate_graphs(8))


def test_n5_classes_match_naive_enumeration():
    # independent grouping: permutation-minimized edge tuples over all 1024
    # labeled graphs, against the vertex-extension enumerator
    from rainbowvc import is_connected

    naive = set()
    for g in all_labeled_graphs(5):
        if is_connected(g) and is_connected(complement(g)):
            naive.add(perm_min_edge_key(g))
    reps = list(enumerate_graphs(5))
    assert len(reps) == len(naive) == 8
    assert {perm_min_edge_key(g) for g in reps} == naive
    assert canonical_representative(cycle_graph(5)) in reps
    assert canonical_representative(path_graph(5)) in reps


def test_dedup_reps_are_canonical_and_ascending():
    for n in (4, 5, 6, 7):
        masks = []
        for g in enumerate_graphs(n):
            assert canonical_representative(g) == g
            masks.append(triangle_mask(g))
        assert masks == sorted(masks)


def test_labeled_enumeration_counts():
    # every labeled graph appears exactly once, no isomorph filtering
    labeled5 = labeled_connected_graphs(5, complement_too=True)
    assert len(labeled5) == 432
    assert len({triangle_mask(g) for g in labeled5}) == 432


def test_connected_enumeration_counts():
    # OEIS A001349
    counts = [len(list(enumerate_connected_graphs(n))) for n in range(1, 8)]
    assert counts == [1, 1, 2, 6, 21, 112, 853]


def test_dedup_classes_match_labeled_walk():
    # one class per canonical form met by the labeled walk, and no other
    cases = [(enumerate_graphs, True, n) for n in range(2, 7)]
    cases += [(enumerate_connected_graphs, False, n) for n in range(1, 6)]
    for enumerate_fn, complement_too, n in cases:
        walk = labeled_connected_graphs(n, complement_too=complement_too)
        labeled = {canonical_representative(g) for g in walk}
        reps = [canonical_representative(g) for g in enumerate_fn(n)]
        assert len(reps) == len(set(reps))
        assert set(reps) == labeled


def test_dedup_classes_match_networkx_atlas():
    # the atlas lists every graph on up to 7 vertices once up to isomorphism;
    # each class must match exactly one atlas graph, tested by networkx alone
    nx = pytest.importorskip("networkx")

    def invariant(h):
        return tuple(sorted(d for _, d in h.degree())), tuple(sorted(nx.triangles(h).values()))

    atlas = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n >= 4 and nx.is_connected(h) and nx.is_connected(nx.complement(h)):
            atlas.setdefault(n, {}).setdefault(invariant(h), []).append(h)
    for n, want in ((4, 1), (5, 8), (6, 68), (7, 662)):
        buckets = atlas[n]
        assert sum(map(len, buckets.values())) == want
        reps = list(enumerate_graphs(n))
        assert len(reps) == want
        for g in reps:
            ref = nx.from_graph6_bytes(to_graph6(g).encode("ascii"))
            bucket = buckets.get(invariant(ref), [])
            matches = [h for h in bucket if nx.is_isomorphic(ref, h)]
            assert len(matches) == 1, to_graph6(g)
            bucket.remove(matches[0])


# --- ingestion ---------------------------------------------------------------

def test_ingest_matches_builtin_classes():
    lines = [to_graph6(g) + "\n" for g in all_labeled_graphs(5)]
    got = sorted(triangle_mask(canonical_representative(g)) for g in ingest_graph6(lines))
    want = sorted(
        triangle_mask(canonical_representative(g))
        for g in labeled_connected_graphs(5, complement_too=True)
    )
    assert got == want


def test_ingest_empty_stream():
    assert list(ingest_graph6([])) == []
    assert list(ingest_graph6(["", "   ", "\n"])) == []


def test_ingest_strict_reports_line_number():
    with pytest.raises(IngestError, match="line 2"):
        list(ingest_graph6(["Dhc\n", "not-graph6\n"]))


def test_ingest_lenient_skips_and_records():
    errors = []
    kept = list(ingest_graph6(["Dhc", "~oops", "DhC"], strict=False, errors=errors))
    assert [to_graph6(g) for g in kept] == ["Dhc", "DhC"]
    assert len(errors) == 1 and errors[0][0] == 2


def test_ingest_preserves_order():
    lines = ["DhC", "Dhc"]
    assert [to_graph6(g) for g in ingest_graph6(lines)] == lines


# --- census ------------------------------------------------------------------

def test_census_n5():
    records, summary = census_run(enumerate_graphs(5), 5)
    assert summary.total_pairs == 8
    assert summary.min_sum == 2 and summary.max_sum == 4
    assert summary.violations == ()
    assert to_graph6(canonical_representative(cycle_graph(5))) in summary.min_witnesses
    assert all(r.bounds_ok for r in records)
    assert all(r.sum == r.rvc_g + r.rvc_gbar for r in records)


def test_census_n4_breaks_the_bound():
    records, summary = census_run(enumerate_graphs(4), 4)
    assert summary.max_sum == 4 > 3
    assert summary.max_witnesses == (to_graph6(canonical_representative(path_graph(4))),)
    assert not records[0].bounds_ok
    assert summary.violations == summary.max_witnesses


def test_census_rejects_mixed_orders():
    stream = [canonical_representative(path_graph(4)), canonical_representative(path_graph(5))]
    with pytest.raises(ValueError, match="orders"):
        census_run(iter(stream), 4)


def test_census_rejects_one_sided_stream():
    from rainbowvc import star_graph

    with pytest.raises(ValueError, match="connected"):
        census_run(iter([star_graph(4)]), 4)


def test_census_empty_stream():
    records, summary = census_run(iter([]), 6)
    assert records == []
    assert summary.total_pairs == 0
    assert summary.min_sum is None and summary.max_sum is None


def test_census_records_sorted_and_deterministic():
    records1, _ = census_run(labeled_connected_graphs(5, complement_too=True), 5)
    records2, _ = census_run(reversed(labeled_connected_graphs(5, complement_too=True)), 5)
    assert records1 == records2
    keys = [r.graph6 for r in records1]
    assert keys == sorted(keys)
    assert csv_sha256(records1) == N5_LABELED_CSV_SHA256


def census_by_workers(make_stream, n: int, workers: int):
    single, summary1 = census_run(make_stream(), n, workers=1)
    multi, summary2 = census_run(make_stream(), n, workers=workers)
    assert single == multi
    assert summary1 == summary2
    assert records_to_csv(single) == records_to_csv(multi)
    return single


def test_census_workers_match_single_thread():
    records = census_by_workers(lambda: enumerate_graphs(6), 6, 4)
    assert csv_sha256(records) == N6_DEDUP_CSV_SHA256
    # each n = 8 graph sits beside a relabeled copy of its complement, so
    # two records solve the same pair of classes
    perm = [3, 7, 0, 5, 1, 6, 2, 4]
    n8 = []
    for base in (path_graph(8), cycle_graph(8)):
        n8 += [base, relabel(complement(base), perm)]
    lines = [to_graph6(g) for g in n8]
    by_g6 = {r.graph6: r for r in census_by_workers(lambda: ingest_graph6(lines), 8, 2)}
    for i in (0, 2):
        a, b = by_g6[lines[i]], by_g6[lines[i + 1]]
        assert (a.rvc_g, a.diam_g) == (b.rvc_gbar, b.diam_gbar)
        assert (a.rvc_gbar, a.diam_gbar) == (b.rvc_g, b.diam_g)


def test_census_ingested_n8():
    # orders beyond the built-in enumerator arrive as graph6 lines
    lines = [to_graph6(path_graph(8)), to_graph6(cycle_graph(8))]
    records, summary = census_run(ingest_graph6(lines), 8)
    assert summary.total_pairs == 2
    by_g6 = {r.graph6: r for r in records}
    p8 = by_g6[to_graph6(path_graph(8))]
    assert (p8.rvc_g, p8.rvc_gbar, p8.sum, p8.bounds_ok) == (6, 1, 7, True)


def test_census_ingested_n9_above_canonical_limit():
    # ingestion and solving work past CANONICAL_MAX_VERTICES
    from rainbowvc import diameter_two_graph

    g = diameter_two_graph(9)
    records, summary = census_run(ingest_graph6([to_graph6(g)]), 9)
    assert summary.total_pairs == 1
    assert records[0].sum == 2 and records[0].bounds_ok


def test_census_n7_dedup_csv_pinned():
    records, _ = census_run(enumerate_graphs(7), 7)
    assert csv_sha256(records) == N7_DEDUP_CSV_SHA256


def test_census_diameters_match_networkx():
    nx = pytest.importorskip("networkx")
    records, _ = census_run(enumerate_graphs(6), 6)
    assert records
    for r in records:
        ref = nx.from_graph6_bytes(r.graph6.encode("ascii"))
        assert (r.diam_g, r.diam_gbar) == (nx.diameter(ref), nx.diameter(nx.complement(ref)))


def test_dedup_soundness_small():
    # extremes agree between the labeled run and the per-class run
    for n in (4, 5, 6):
        _, labeled = census_run(labeled_connected_graphs(n, complement_too=True), n)
        _, classes = census_run(enumerate_graphs(n), n)
        assert labeled.min_sum == classes.min_sum
        assert labeled.max_sum == classes.max_sum


# --- output formats --------------------------------------------------------

def test_csv_shape():
    records, _ = census_run(enumerate_graphs(4), 4)
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "graph6,n,rvc_g,rvc_gbar,sum,diam_g,diam_gbar,bounds_ok"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 8
    assert fields[1] == "4" and fields[7] in ("true", "false")


def test_summary_dict_mirror():
    _, summary = census_run(enumerate_graphs(5), 5)
    data = summary_to_dict(summary)
    assert set(data) == {
        "n",
        "total_pairs",
        "min_sum",
        "max_sum",
        "min_witnesses",
        "max_witnesses",
        "violations",
    }
    assert data["n"] == 5 and data["total_pairs"] == 8
    assert data["violations"] == []
