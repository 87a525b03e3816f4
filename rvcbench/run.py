"""rainbowvc benchmark: one workload, closed loop, one caller.

Usage: python3 rvcbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Each pass of the workload is a fresh
interpreter (``job.py``) that imports ``rainbowvc`` from ``src/`` and calls
``rainbowvc.cli.main`` in-process; passes repeat until about ``--seconds``
of them have run, and at least one always does.  Import-only interpreters
(probes) before each pass and after the last sample the set-up time.
Every pass's outputs are checked by ``verify.py`` after the pass ends,
outside the timed section.  A pass that exits non-zero, or does not end
before the run's deadline, fails every op it had.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the passes run with every public layer
function wrapped (``spans.py``) and the line reports the per-layer metrics.
Values are medians over the run's passes.  Jobs are pinned to the run's
CPUs (one, or two for the census worker pool), and a sampler process on
each of them (``speed.py``) times a fixed chunk all through the run.  Every
time is stated at the reference CPU speed: it is multiplied by REF_CHUNK_S
over the mean chunk time sampled on the job's CPUs while it was measured.
The line before the result gives the raw wall time and the speed factor.
All scratch files live in a temporary directory inside the checkout that
is removed at exit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from speed import Samplers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")

WORKLOADS = ("census-n7-builtin", "census-n8-g6", "census-n8-g6-w2", "solve-hard")
# census worker processes, where not 1
WORKERS = {"census-n8-g6-w2": 2}
SETUP_PROBES = 4
# probes after the last pass top the set-up samples up to at least this many
MIN_SETUP_SAMPLES = 24
# a run must end within 180 s whatever --seconds asks for
MAX_BUDGET_S = 160.0
# a typical time of speed.speed_chunk on the 2-vCPU KVM guest where the
# benchmark was defined (CPython 3.11); only the scale of the times depends on it
REF_CHUNK_S = 3.5e-4


class Run:
    """Scratch directory, job launcher and time budget of one benchmark run."""

    def __init__(self, tmp: str, seconds: int, cpus: list[int]) -> None:
        self.tmp = tmp
        self.cpus = cpus
        self.deadline = time.monotonic() + min(MAX_BUDGET_S, 3 * seconds + 60)
        self.jobs = 0

    def job(self, spec: dict) -> dict | None:
        """The job's result, or None if it exited non-zero or overran the deadline."""
        self.jobs += 1
        spec = {**spec, "cpus": self.cpus if spec["mode"] != "import" else self.cpus[-1:]}
        spec_path = os.path.join(self.tmp, f"job{self.jobs}.spec.json")
        result_path = os.path.join(self.tmp, f"job{self.jobs}.result.json")
        with open(spec_path, "w", encoding="ascii") as fh:
            json.dump(spec, fh)
        # own process group, so that a job killed at the deadline takes its
        # census workers with it
        proc = subprocess.Popen(
            [sys.executable, JOB, spec_path, result_path],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            return None
        if proc.returncode != 0:
            return None
        with open(result_path, encoding="ascii") as fh:
            return json.load(fh)

    def pass_dir(self) -> str:
        return tempfile.mkdtemp(prefix="pass", dir=self.tmp)


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a job's process group and wait until every member has gone."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError):
        return ""


def _plan(workload: str, seed: int, run: Run):
    """(spec for a pass, checker of a pass, rvc values produced per pass)."""
    import inputs
    import verify

    if workload == "solve-hard":
        graphs = [[kind, n] for kind, n, _ in verify.SOLVE_HARD]

        def spec(out: str, trace: bool) -> dict:
            return {"mode": "compute", "trace": trace, "graphs": graphs}

        def check(result: dict, out: str) -> tuple[int, int]:
            return verify.check_solve_hard(result["exit_codes"], result["stdout"])

        return spec, check, len(graphs)

    if workload == "census-n7-builtin":
        n, source, workers, graphs = 7, ["--builtin", "--dedup"], 1, 2 * verify.N7_CLASSES
        checker = verify.check_census_n7
    else:
        lines, classes = inputs.n8_census_input(seed)
        g6_path = os.path.join(run.tmp, "input.g6")
        with open(g6_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        n, source, graphs = inputs.N8_ORDER, ["--file", g6_path, "--strict"], 2 * len(lines)
        workers = WORKERS.get(workload, 1)
        checker = verify.CensusReference(n, lines, classes).check

    def spec(out: str, trace: bool) -> dict:
        argv = ["census", "--n", str(n), *source, "--workers", str(workers),
                "--out-csv", os.path.join(out, "records.csv"),
                "--out-summary", os.path.join(out, "summary.json")]
        return {"mode": "cli", "trace": trace, "argvs": [argv]}

    def check(result: dict, out: str) -> tuple[int, int]:
        return checker(
            result["exit_codes"][0],
            _read(os.path.join(out, "records.csv")),
            _read(os.path.join(out, "summary.json")),
            result["stdout"],
        )

    return spec, check, graphs


def _median(values: list) -> float:
    # counts repeat exactly across passes, so keep them whole numbers
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def collect(workload: str, seed: int, seconds: int, trace: bool, run: Run) -> dict:
    """Run the passes and their probes; check every pass."""
    spec, check, graphs = _plan(workload, seed, run)
    run.job({"mode": "import"})  # warm-up: byte-compiles src/ on a fresh checkout
    probes: list[dict] = []
    passes: list[dict] = []
    attempted = failed = 0
    spent = 0.0
    while True:
        probes += [run.job({"mode": "import"}) for _ in range(SETUP_PROBES)]
        out = run.pass_dir()
        t0 = time.monotonic()
        result = run.job(spec(out, trace))
        last = time.monotonic() - t0
        spent += last
        a, f = check(result or {"exit_codes": [1], "stdout": ""}, out)
        attempted += a
        failed += f
        if result is None:
            break
        passes.append(result)
        if spent + last / 2 >= seconds:
            break
    tail = max(SETUP_PROBES, MIN_SETUP_SAMPLES - len(probes) - len(passes))
    probes += [run.job({"mode": "import"}) for _ in range(tail)]
    return {"probes": [p for p in probes if p is not None], "passes": passes, "graphs": graphs,
            "attempted": attempted, "failed": failed}


def summarise(workload: str, trace: bool, collected: dict, cpus: list[int], samplers: Samplers) -> dict:
    """Medians of the passes' values, every time restated at the reference speed."""
    from spans import layer_metrics

    def factor(cpus: list[int], window: tuple[float, float]) -> float:
        chunk_s = samplers.chunk_s(cpus, window)
        if chunk_s is None:
            raise RuntimeError("no CPU-speed sample around a timed window")
        return REF_CHUNK_S / chunk_s

    graphs = collected["graphs"]
    samples: list[dict] = []
    raw: list[tuple[float, float]] = []
    for result in collected["passes"]:
        f = factor(cpus, result["wall_window"])
        raw.append((result["wall_s"], f))
        if trace:
            layers = layer_metrics(result["stats"], result["wall_s"])
            sample = {k: v * f if k.endswith("_s") else v for k, v in layers.items()}
            in_records = graphs if workload != "solve-hard" else 0
            sample["census.graphs_in_records"] = in_records
            sample["census.solve_reuse"] = (
                1 - sample["rainbow.rvc_exact.calls"] / in_records if in_records else 0.0
            )
        else:
            wall = result["wall_s"] * f
            sample = {"wall_s": wall, "graphs_per_s": graphs / wall, "peak_rss_mb": result["peak_rss_mb"]}
        samples.append(sample)
    # no pass ended: the run has failed, and its values are left at 0
    values = {key: _median([s[key] for s in samples]) for key in samples[0]} if samples else {}
    if not trace:
        values["setup_s"] = _median([
            r["setup_s"] * factor(cpus[-1:], r["setup_window"])
            for r in collected["probes"] + collected["passes"]
        ])
    detail = {
        "passes": len(raw),
        "raw_wall_s": statistics.median(w for w, _ in raw) if raw else None,
        "speed_factor": statistics.median(f for _, f in raw) if raw else None,
    }
    return {"attempted": collected["attempted"], "failed": collected["failed"], "values": values,
            "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "rainbowvc", "__init__.py")):
        print(f"error: no rainbowvc sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, SRC)

    cpus = sorted(os.sched_getaffinity(0))[-WORKERS.get(args.workload, 1):]
    tmp = tempfile.mkdtemp(prefix=".rvcbench-", dir=ROOT)
    try:
        samplers = Samplers(cpus, tmp)
        try:
            run = Run(tmp, args.seconds, cpus)
            collected = collect(args.workload, args.seed, args.seconds, bool(args.trace), run)
        finally:
            samplers.stop()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    measured = summarise(args.workload, bool(args.trace), collected, cpus, samplers)
    values = measured["values"]
    report = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(measured["detail"]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
