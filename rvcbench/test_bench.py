"""Tests of the benchmark itself: its checkers catch a single bad value,
and its inputs and traced counts are deterministic.

Run from the repository root: python3 -m pytest -q rvcbench
"""

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs  # noqa: E402
import verify  # noqa: E402
from rainbowvc import cli, enumerate_connected_graphs, rvc_exact  # noqa: E402

# Witnesses proposed by the solver for the solve-hard graphs (1-based).
SOLVE_HARD_WITNESSES = (
    [1] + list(range(1, 11)) + [1],
    [1, 2, 3, 1, 2, 4, 1, 2, 3, 5, 4],
    [1, 2, 3, 4, 1, 2, 5, 3, 1, 2, 4, 5],
)


def _census(tmp_path, lines: list[str]) -> tuple[int, str, str, str]:
    g6 = tmp_path / "in.g6"
    g6.write_text("\n".join(lines) + "\n")
    csv_path, summary_path = tmp_path / "out.csv", tmp_path / "out.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["census", "--n", "8", "--file", str(g6), "--strict",
                         "--out-csv", str(csv_path), "--out-summary", str(summary_path)])
    return code, csv_path.read_text(), summary_path.read_text(), out.getvalue()


def test_census_check_counts_one_corrupted_record(tmp_path):
    lines, classes = inputs.n8_census_input(seed=3, count=40)
    reference = verify.CensusReference(inputs.N8_ORDER, lines, classes)
    code, csv_text, summary_text, stdout = _census(tmp_path, lines)
    assert reference.check(code, csv_text, summary_text, stdout) == (40, 0)

    rows = csv_text.splitlines()
    fields = rows[5].split(",")
    fields[2] = str(int(fields[2]) + 1)
    rows[5] = ",".join(fields)
    corrupted = "\n".join(rows) + "\n"
    assert reference.check(code, corrupted, summary_text, stdout) == (40, 1)
    assert reference.check(2, csv_text, summary_text, stdout) == (40, 40)


def test_solve_hard_check_counts_one_wrong_value():
    def stdout(values):
        out = []
        for (kind, n, _), value, colors in zip(verify.SOLVE_HARD, values, SOLVE_HARD_WITNESSES):
            rows = verify.graph_rows(kind, n)
            out.append(json.dumps({
                "graph6": inputs.encode_graph6(rows), "n": n, "diameter": verify.diameter(rows),
                "rvc": value, "coloring": colors,
            }))
        return "\n".join(out) + "\n"

    good = [want for _, _, want in verify.SOLVE_HARD]
    assert verify.check_solve_hard([0, 0, 0], stdout(good)) == (3, 0)
    assert verify.check_solve_hard([0, 0, 0], stdout([good[0], 4, good[2]])) == (3, 1)


def test_refutation_agrees_with_solver_on_order_6():
    for g in enumerate_connected_graphs(6):
        value = rvc_exact(g).value
        if value:
            rows = list(g.adj)
            assert verify.refutes(rows, value - 1) and not verify.refutes(rows, value)


def test_inputs_depend_only_on_seed():
    first, _ = inputs.n8_census_input(seed=11)
    again, _ = inputs.n8_census_input(seed=11)
    other, _ = inputs.n8_census_input(seed=12)
    assert "\n".join(first).encode() == "\n".join(again).encode()
    assert first != other
    assert len(first) == inputs.N8_LINES


def test_traced_counts_repeat_exactly(tmp_path):
    lines, _ = inputs.n8_census_input(seed=5, count=60)
    g6 = tmp_path / "in.g6"
    g6.write_text("\n".join(lines) + "\n")
    spec = tmp_path / "spec.json"
    counts = []
    for mode, extra in (("cli", {"argvs": [["census", "--n", "8", "--file", str(g6), "--strict"]]}),
                        ("compute", {"graphs": [["path", 9], ["cycle", 9]]})):
        runs = []
        for _ in range(2):
            spec.write_text(json.dumps({"mode": mode, "trace": True, **extra}))
            result = tmp_path / "result.json"
            subprocess.run([sys.executable, os.path.join(HERE, "job.py"), str(spec), str(result)],
                           check=True, timeout=120)
            stats = json.loads(result.read_text())["stats"]
            runs.append({(k, f): v[f] for k, v in stats.items() for f in ("calls", "yielded", "exhausted")})
        assert runs[0] == runs[1]
        counts.append(runs[0])
    assert counts[0][("census.ingest_graph6", "yielded")] == 60
    assert counts[1][("rainbow.rgs_colorings", "yielded")] > 0


def test_job_records_a_failed_call_as_its_exit_code(tmp_path):
    # an int argument makes argparse raise TypeError out of cli.main;
    # --help leaves it through SystemExit(0)
    spec, result = tmp_path / "spec.json", tmp_path / "result.json"
    argvs = [["compute", 5], ["no-such-command"], ["--help"]]
    spec.write_text(json.dumps({"mode": "cli", "trace": False, "argvs": argvs}))
    subprocess.run([sys.executable, os.path.join(HERE, "job.py"), str(spec), str(result)],
                   check=True, timeout=60, capture_output=True)
    assert json.loads(result.read_text())["exit_codes"] == [1, 1, 0]
