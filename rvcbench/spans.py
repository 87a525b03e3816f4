"""Per-layer spans for a traced benchmark job.

Every public function of the five layer modules is wrapped wherever a
``rainbowvc`` module binds it, including the defining module's own globals,
so calls made inside a layer (``diameter`` calling ``bfs_distances``) are
seen as well as calls between layers.  A call whose result is a generator
is also timed across each resume, which is where a generator does its work.

Spans are aggregated in memory per function as they close: calls, items
yielded, inclusive seconds and self seconds (inclusive minus the time of
the wrapped calls nested inside).  Nothing is written until the job ends.
"""

import functools
import inspect
import sys
import time

LAYERS = ("graphs", "rainbow", "constructions", "census", "cli")

# iter_bits runs once per set bit inside every BFS and path search; wrapping
# it would multiply the traced run time, so its cost stays in its callers.
UNWRAPPED = frozenset({"graphs.iter_bits"})

EXHAUSTED_KEY = "rainbow.rvc_exact"


class Tracer:
    def __init__(self) -> None:
        # name -> {"calls", "yielded", "total_s", "self_s", "exhausted"}
        self.stats: dict[str, dict[str, float]] = {}
        # child seconds accumulated by each open span, innermost last
        self._open: list[float] = []

    def install(self) -> None:
        """Replace every binding of a layer's public functions in rainbowvc."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"rainbowvc.{layer}"]
            for name, fn in vars(module).items():
                key = f"{layer}.{name}"
                if (
                    name.startswith("_")
                    or key in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapped[fn] = self._wrap(key, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "rainbowvc" and not modname.startswith("rainbowvc."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _close(self, st: dict, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._open.pop()
        st["total_s"] += dt
        st["self_s"] += dt - child
        if self._open:
            self._open[-1] += dt

    def _wrap(self, key: str, fn):
        st = self.stats[key] = {
            "calls": 0, "yielded": 0, "total_s": 0.0, "self_s": 0.0, "exhausted": 0,
        }

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st["calls"] += 1
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(st, t0)
            if inspect.isgenerator(result):
                return self._resumes(st, result)
            if key == EXHAUSTED_KEY and result.exhausted:
                st["exhausted"] += 1
            return result

        return wrapper

    def _resumes(self, st: dict, gen):
        try:
            while True:
                self._open.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(st, t0)
                st["yielded"] += 1
                yield item
        finally:
            gen.close()


def layer_metrics(stats: dict[str, dict[str, float]], wall_s: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced job."""

    def get(key: str, field: str) -> float:
        return stats.get(key, {}).get(field, 0)

    solves = get("rainbow.rvc_exact", "calls")
    tried = get("rainbow.rgs_colorings", "yielded")
    out = {
        "trace.wall_s": wall_s,
        "census.enumerate_graphs.self_s": get("census.enumerate_graphs", "self_s"),
        "census.enumerate_graphs.yielded": get("census.enumerate_graphs", "yielded"),
        "census.ingest_graph6.self_s": get("census.ingest_graph6", "self_s"),
        "census.census_run.self_s": get("census.census_run", "self_s"),
        "census.records_to_csv.self_s": get("census.records_to_csv", "self_s"),
        "graphs.graph6.calls": get("graphs.parse_graph6", "calls") + get("graphs.to_graph6", "calls"),
        "graphs.graph6.self_s": get("graphs.parse_graph6", "self_s") + get("graphs.to_graph6", "self_s"),
        "graphs.complement.calls": get("graphs.complement", "calls"),
        "rainbow.colorings_tried": tried,
        "rainbow.colorings_per_solve": tried / solves if solves else 0.0,
        "rainbow.exhausted_share": get("rainbow.rvc_exact", "exhausted") / solves if solves else 0.0,
        "cli.main.self_s": get("cli.main", "self_s"),
    }
    for key in ("graphs.canonical_form", "graphs.bfs_distances", "graphs.is_connected",
                "rainbow.rvc_exact", "rainbow.find_rainbow_coloring"):
        out[f"{key}.calls"] = get(key, "calls")
        out[f"{key}.self_s"] = get(key, "self_s")
    for key in sorted(stats):
        if key.startswith("constructions."):
            out[f"{key}.calls"] = get(key, "calls")
    return out
