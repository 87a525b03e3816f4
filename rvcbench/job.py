"""One benchmark pass in a fresh interpreter.

Usage: python3 rvcbench/job.py SPEC_JSON RESULT_JSON

SPEC_JSON holds ``{"mode": "import" | "cli" | "compute", "trace": bool,
"cpus": [...], "argvs": [[...], ...], "graphs": [["path" | "cycle", n], ...]}``.
The job pins itself to ``cpus`` when given, then times
``import rainbowvc`` (set-up) and stops there in ``import`` mode.  In
``cli`` mode it calls ``rainbowvc.cli.main`` once per argv with stdout
captured; in ``compute`` mode it first builds each graph with the program's
constructions and then runs ``rvcng compute`` on its graph6 text.  Only the
calls into ``cli.main`` are timed.  The result JSON carries the timings
with the ``time.monotonic`` window of each (``run.py`` matches them to the
CPU-speed samples of ``speed.py``), exit codes, captured stdout, peak RSS
and, when traced, the span aggregates.

Peak RSS is VmHWM of this process plus ``RUSAGE_CHILDREN.ru_maxrss``, which
Linux reports as the peak of the largest single waited-for child, not a
sum: for the census worker pool it adds one worker.  This process's own
``ru_maxrss`` would carry the launching process's high-water mark across
``exec`` on Linux.
"""

import json
import os
import sys
import time

with open(sys.argv[1], encoding="ascii") as _fh:
    SPEC = json.load(_fh)
if SPEC.get("cpus"):
    os.sched_setaffinity(0, SPEC["cpus"])

t0 = time.monotonic()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import rainbowvc  # noqa: E402
import rainbowvc.cli  # noqa: E402

SETUP_WINDOW = (t0, time.monotonic())

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from spans import Tracer  # noqa: E402


def _call(argv: list[str]) -> int:
    """Exit code of ``cli.main``; an exception escaping it counts as 1."""
    try:
        return rainbowvc.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def _compute_argvs(graphs: list[tuple[str, int]]) -> list[list[str]]:
    from rainbowvc import constructions
    from rainbowvc.graphs import to_graph6

    build = {"path": constructions.path_graph, "cycle": constructions.cycle_graph}
    return [["compute", to_graph6(build[kind](n))] for kind, n in graphs]


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return (hwm_kib + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main(spec: dict, result_path: str) -> None:
    result: dict = {"setup_s": SETUP_WINDOW[1] - SETUP_WINDOW[0], "setup_window": SETUP_WINDOW}
    if spec["mode"] != "import":
        tracer = Tracer() if spec["trace"] else None
        if tracer is not None:
            tracer.install()
        argvs = _compute_argvs(spec["graphs"]) if spec["mode"] == "compute" else spec["argvs"]
        out = io.StringIO()
        codes = []
        start = time.monotonic()
        with contextlib.redirect_stdout(out):
            for argv in argvs:
                codes.append(_call(argv))
        end = time.monotonic()
        result["wall_s"] = end - start
        result["wall_window"] = (start, end)
        result["exit_codes"] = codes
        result["stdout"] = out.getvalue()
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            result["stats"] = tracer.stats
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(SPEC, sys.argv[2])
