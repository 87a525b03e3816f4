import io
import json

import pytest

from rainbowvc import (
    CensusSummary,
    complete_graph,
    cycle_graph,
    path_graph,
    to_graph6,
)
from rainbowvc.cli import main

P5 = to_graph6(path_graph(5))
K5 = to_graph6(complete_graph(5))
C5 = to_graph6(cycle_graph(5))
P4 = to_graph6(path_graph(4))


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- compute -----------------------------------------------------------------

def test_compute_p5(capsys):
    body = run_json(capsys, "compute", P5)
    assert body["schema"] == 1
    assert body["graph6"] == P5
    assert body["n"] == 5 and body["diameter"] == 4
    assert body["rvc"] == 3
    assert len(body["coloring"]) == 5
    assert all(1 <= c <= 3 for c in body["coloring"])
    assert body["lower_bound_reason"] == "diameter-minus-one"


def test_compute_complete(capsys):
    body = run_json(capsys, "compute", K5)
    assert body["rvc"] == 0 and body["coloring"] == []
    assert body["lower_bound_reason"] == "complete-graph"


def test_compute_c5(capsys):
    assert run_json(capsys, "compute", C5)["rvc"] == 1


def test_compute_bad_graph6(capsys):
    code, out, err = run(capsys, "compute", "~nope")
    assert code == 2 and out == "" and "error" in err


def test_compute_disconnected(capsys):
    code, out, err = run(capsys, "compute", "C?")
    assert code == 2


def test_compute_stdin_batch(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{P5}\n{C5}\n"))
    code, out, err = run(capsys, "compute")
    assert code == 0
    lines = out.strip().splitlines()
    assert [json.loads(line)["rvc"] for line in lines] == [3, 1]


def test_compute_stdin_bad_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{P5}\nbogus line\n"))
    code, out, err = run(capsys, "compute")
    assert code == 2
    assert "line 2" in err


# --- check ---------------------------------------------------------------------

def test_check_good_coloring(capsys):
    body = run_json(capsys, "check", P4, "1,2,3,4")
    assert body == {"schema": 1, "rainbow_vertex_connected": True}


def test_check_bad_coloring_reports_first_pair(capsys):
    body = run_json(capsys, "check", P4, "1,2,2,1")
    assert body["rainbow_vertex_connected"] is False
    assert body["failing_pair"] == [0, 3]


def test_check_triangle_monochromatic(capsys):
    body = run_json(capsys, "check", to_graph6(complete_graph(3)), "1,1,1")
    assert body["rainbow_vertex_connected"] is True


def test_check_length_mismatch(capsys):
    code, out, err = run(capsys, "check", P4, "1,2")
    assert code == 2


def test_check_rejects_zero_based(capsys):
    code, out, err = run(capsys, "check", P4, "0,1,2,3")
    assert code == 2


def test_compute_witness_roundtrips_through_check(capsys):
    for g6 in (P5, C5, K5, to_graph6(cycle_graph(7))):
        body = run_json(capsys, "compute", g6)
        colors = ",".join(str(c) for c in body["coloring"])
        verdict = run_json(capsys, "check", g6, colors)
        assert verdict["rainbow_vertex_connected"] is True


# --- construct ---------------------------------------------------------------

def test_construct_path_pair(capsys):
    body = run_json(capsys, "construct", "path-pair", "--n", "7")
    assert body["sum"] == 6
    assert body["rvc_g"] == 5 and body["rvc_gbar"] == 1


def test_construct_diam2(capsys):
    body = run_json(capsys, "construct", "diam2", "--n", "8")
    assert body["sum"] == 2


def test_construct_cycle(capsys):
    body = run_json(capsys, "construct", "cycle", "--n", "6")
    assert (body["rvc_g"], body["rvc_gbar"], body["sum"]) == (2, 1, 3)


def test_construct_bad_n_is_data_error(capsys):
    code, out, err = run(capsys, "construct", "diam2", "--n", "4")
    assert code == 2 and out == ""


def test_construct_unknown_family_is_usage_error(capsys):
    code, out, err = run(capsys, "construct", "moebius", "--n", "6")
    assert code == 1 and out == ""


# --- census ----------------------------------------------------------------

def test_census_n5_builtin(capsys):
    body = run_json(capsys, "census", "--n", "5", "--builtin", "--dedup")
    assert body["schema"] == 1
    assert body["min_sum"] == 2 and body["max_sum"] == 4
    assert body["violations"] == []
    assert body["total_pairs"] == 8


def test_census_n4_warns_but_succeeds(capsys):
    code, out, err = run(capsys, "census", "--n", "4", "--builtin", "--dedup")
    assert code == 0
    body = json.loads(out)
    assert body["max_sum"] == 4
    assert "n >= 5" in err or "n=4" in err


def test_census_writes_artifacts(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    summary_path = tmp_path / "summary.json"
    code, out, err = run(
        capsys,
        "census", "--n", "5", "--builtin", "--dedup",
        "--out-csv", str(csv_path),
        "--out-summary", str(summary_path),
    )
    assert code == 0
    csv_text = csv_path.read_text()
    assert csv_text.startswith("graph6,n,rvc_g,rvc_gbar,sum,diam_g,diam_gbar,bounds_ok\n")
    assert len(csv_text.strip().splitlines()) == 9
    stored = json.loads(summary_path.read_text())
    assert stored == json.loads(out)


def test_census_workers_byte_identical(capsys, tmp_path):
    paths = []
    for workers in ("1", "4"):
        p = tmp_path / f"w{workers}.csv"
        code, out, err = run(
            capsys,
            "census", "--n", "5", "--builtin", "--dedup",
            "--workers", workers, "--out-csv", str(p),
        )
        assert code == 0
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_census_dedup_has_no_effect(capsys, tmp_path):
    # --builtin always lists one graph per class; --dedup stays accepted
    outputs = []
    for extra in ([], ["--dedup"]):
        csv_path = tmp_path / f"out{len(extra)}.csv"
        summary_path = tmp_path / f"summary{len(extra)}.json"
        result = run(
            capsys,
            "census", "--n", "5", "--builtin", *extra,
            "--out-csv", str(csv_path),
            "--out-summary", str(summary_path),
        )
        outputs.append((result, csv_path.read_bytes(), summary_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0][0] == 0


def test_census_from_file(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text(f"{C5}\n{P5}\n")
    body = run_json(capsys, "census", "--n", "5", "--file", str(src))
    assert body["total_pairs"] == 2
    assert body["min_sum"] == 2 and body["max_sum"] == 4


def test_census_file_strict_aborts(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text(f"{C5}\nnot graph6 at all\n")
    code, out, err = run(capsys, "census", "--n", "5", "--file", str(src), "--strict")
    assert code == 2
    assert "line 2" in err


def test_census_file_lenient_skips(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text(f"{C5}\nnot graph6 at all\n{P5}\n")
    code, out, err = run(capsys, "census", "--n", "5", "--file", str(src))
    assert code == 0
    assert json.loads(out)["total_pairs"] == 2
    assert "line 2" in err


def test_census_file_non_ascii_line_lenient_skips(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_bytes(f"{C5}\nD\u00e9c\n{P5}\n".encode("utf-8"))
    code, out, err = run(capsys, "census", "--n", "5", "--file", str(src))
    assert code == 0
    assert json.loads(out)["total_pairs"] == 2
    assert "warning: skipped line 2:" in err


def test_census_file_non_ascii_line_strict_aborts(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_bytes(f"{C5}\nD\u00e9c\n{P5}\n".encode("utf-8"))
    code, out, err = run(capsys, "census", "--n", "5", "--file", str(src), "--strict")
    assert code == 2 and out == ""
    assert "error: line 2:" in err


def test_census_needs_exactly_one_source(capsys):
    assert run(capsys, "census", "--n", "5")[0] == 1
    assert run(capsys, "census", "--n", "5", "--builtin", "--file", "x.g6")[0] == 1


def test_census_rejects_workers_below_one(capsys):
    for workers in ("0", "-2"):
        code, out, err = run(capsys, "census", "--n", "5", "--builtin", "--workers", workers)
        assert code == 1
        assert out == ""
        assert "--workers" in err


def test_census_violation_exit_code(capsys, monkeypatch):
    # the bound holds everywhere reachable, so fake one violation
    fake_summary = CensusSummary(5, 1, 5, 5, ("Dhc",), ("Dhc",), ("Dhc",))
    monkeypatch.setattr("rainbowvc.cli.census_run", lambda *a, **k: ([], fake_summary))
    code, out, err = run(capsys, "census", "--n", "5", "--builtin")
    assert code == 3
    assert "violation" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == 1
