"""End-to-end verification battery.

Each test covers one headline claim at its stated time budget and prints a
single PASS/FAIL line (visible under ``pytest -s``):

  1. rvc of the path P_n is n - 2 for n = 3..10.
  2. P_n paired with its complement sums to n - 1 for n = 5..10.
  3. The diameter-two pair sums to 2 for n = 5..12, both diameters 2.
  4. Census n = 5: min sum 2, max sum 4, no bound violations.
  5. Census n = 6 and n = 7: max sum n - 1, no violations, sharp both ways.
  6. Census n = 4: max sum 4 exceeds n - 1 = 3, witnessed by P4.
  7. Attaching a vertex to q >= n - rvc(g) neighbors never raises rvc
     (exhaustive over connected g with n <= 5 and all neighbor sets).
  8. Without the neighbor-count premise the increase is at most 1.
  9. The fast rainbow-path checker agrees with brute-force simple-path
     enumeration on every connected graph with n <= 6, 200 colorings each.
 10. Structural invariants, exhaustive at n <= 6: complement involution,
     graph6 round-trip both directions, diam - 1 <= rvc <= n - 2 with
     equality at diameter <= 2.
"""

import random
import time

import pytest

from rainbowvc import (
    VertexColoring,
    canonical_representative,
    census_run,
    complement,
    diameter,
    enumerate_connected_graphs,
    enumerate_graphs,
    exists_rainbow_path,
    exists_rainbow_path_oracle,
    is_complete,
    lower_bound_pair,
    parse_graph6,
    path_complement_pair,
    path_graph,
    rvc_exact,
    to_graph6,
    verify_extension_bound,
)

from strategies import all_labeled_graphs


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:2d}] {status} {name} ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {num} failed: {name}"
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit:.0f}s"


def _class_graph6(g) -> str:
    return to_graph6(canonical_representative(g))


def test_criterion_1_path_values():
    t0 = time.monotonic()
    ok = all(rvc_exact(path_graph(n)).value == n - 2 for n in range(3, 11))
    _report(1, "rvc(P_n) = n - 2 for n = 3..10", ok, time.monotonic() - t0, 30)


def test_criterion_2_upper_bound_sharpness():
    t0 = time.monotonic()
    ok = all(path_complement_pair(n).sum == n - 1 for n in range(5, 11))
    _report(2, "path pair sum = n - 1 for n = 5..10", ok, time.monotonic() - t0, 30)


def test_criterion_3_lower_bound_sharpness():
    t0 = time.monotonic()
    ok = True
    for n in range(5, 13):
        pair = lower_bound_pair(n)
        ok = ok and pair.sum == 2
        ok = ok and diameter(pair.g) == 2 and diameter(pair.gbar) == 2
    _report(3, "diameter-two pair sum = 2 for n = 5..12", ok, time.monotonic() - t0, 10)


# class counts with both sides connected: all classes minus twice the
# disconnected ones (no graph is disconnected on both sides); cross-checked
# against the naive permutation-key enumeration at n <= 5
BOTH_CONNECTED_CLASSES = {4: 1, 5: 8, 6: 68, 7: 662}


def test_criterion_4_census_n5():
    t0 = time.monotonic()
    _, summary = census_run(enumerate_graphs(5), 5)
    ok = (
        summary.total_pairs == BOTH_CONNECTED_CLASSES[5]
        and summary.min_sum == 2
        and summary.max_sum == 4
        and not summary.violations
        and _class_graph6(path_graph(5)) in summary.max_witnesses
        and _class_graph6(lower_bound_pair(5).g) in summary.min_witnesses
    )
    _report(4, "census n=5: sums in [2, 4], no violations", ok, time.monotonic() - t0, 10)


def test_criterion_5_census_n6():
    t0 = time.monotonic()
    _, summary = census_run(enumerate_graphs(6), 6)
    ok = (
        summary.total_pairs == BOTH_CONNECTED_CLASSES[6]
        and summary.max_sum == 5
        and summary.min_sum == 2
        and not summary.violations
        and _class_graph6(path_graph(6)) in summary.max_witnesses
        and _class_graph6(lower_bound_pair(6).g) in summary.min_witnesses
    )
    _report(5, "census n=6: max sum 5, no violations", ok, time.monotonic() - t0, 120)


def test_criterion_5_census_n7():
    t0 = time.monotonic()
    _, summary = census_run(enumerate_graphs(7), 7)
    ok = (
        summary.total_pairs == BOTH_CONNECTED_CLASSES[7]
        and summary.max_sum == 6
        and summary.min_sum == 2
        and not summary.violations
        and _class_graph6(path_graph(7)) in summary.max_witnesses
        and _class_graph6(lower_bound_pair(7).g) in summary.min_witnesses
    )
    _report(5, "census n=7: max sum 6, no violations", ok, time.monotonic() - t0, 1800)


def test_criterion_6_hypothesis_necessity():
    t0 = time.monotonic()
    _, summary = census_run(enumerate_graphs(4), 4)
    ok = summary.max_sum == 4 and summary.max_witnesses == (_class_graph6(path_graph(4)),)
    _report(6, "census n=4: max sum 4 exceeds n - 1 = 3 via P4", ok, time.monotonic() - t0, 1)


@pytest.fixture(scope="module")
def extension_sweep():
    t0 = time.monotonic()
    reports = []
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for mask in range(1, 1 << g.n):
                nbrs = [v for v in range(g.n) if (mask >> v) & 1]
                reports.append(verify_extension_bound(g, nbrs))
    return reports, time.monotonic() - t0


def test_criterion_7_extension_with_premise(extension_sweep):
    reports, elapsed = extension_sweep
    with_premise = [r for r in reports if r.premise_holds]
    ok = bool(with_premise) and not any(r.violation for r in reports)
    ok = ok and all(r.conclusion_holds for r in with_premise)
    name = f"q >= n - rvc keeps rvc ({len(with_premise)} premise instances, n <= 5)"
    _report(7, name, ok, elapsed, 300)


def test_criterion_8_extension_plus_one(extension_sweep):
    reports, elapsed = extension_sweep
    ok = all(r.within_plus_one for r in reports)
    _report(8, f"one new vertex costs at most one color ({len(reports)} instances)", ok, elapsed, 300)


def test_criterion_9_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(1789)
    disagreements = 0
    compared = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            for _ in range(200):
                k = rng.randint(1, 3)
                coloring = VertexColoring(k, tuple(rng.randrange(k) for _ in range(g.n)))
                for s in range(g.n):
                    for t in range(s + 1, g.n):
                        compared += 1
                        if exists_rainbow_path(g, coloring, s, t) != exists_rainbow_path_oracle(
                            g, coloring, s, t
                        ):
                            disagreements += 1
    ok = disagreements == 0 and compared > 0
    name = f"checker = oracle on {compared} pair checks, connected n <= 6"
    _report(9, name, ok, time.monotonic() - t0, 600)


def test_criterion_10_structural_invariants():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            ok = ok and complement(complement(g)) == g
            s = to_graph6(g)
            ok = ok and parse_graph6(s) == g and to_graph6(parse_graph6(s)) == s
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            value = rvc_exact(g).value
            d = diameter(g)
            ok = ok and value >= d - 1
            if d in (1, 2):
                ok = ok and value == d - 1
            if n >= 2:
                ok = ok and value <= n - 2
            ok = ok and (value == 0) == is_complete(g)
    _report(10, "involution, codec round-trip, rvc bounds at n <= 6", ok, time.monotonic() - t0, 600)
