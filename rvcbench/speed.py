"""CPU-speed samplers: the speed each job of a run got, from outside the job.

Usage: python3 rvcbench/speed.py CPU OUT_JSON

The sampler pins itself to CPU and, every PERIOD_S until its stdin reaches
end of file, times a fixed pure-Python chunk on its own CPU clock; then it
writes its ``[monotonic time, chunk seconds]`` samples to OUT_JSON.

On a shared host the speed a vCPU gets changes by up to a factor of two
from one second to the next, and independently on each vCPU.  On the
2-vCPU KVM guest where the benchmark was defined, the chunk took about
0.20 ms in one state and 0.33-0.45 ms in the other, states lasting around
a second, and chunk times on the two vCPUs sampled side by side had a
correlation of 0.08.  So ``run.py`` pins each job to the CPUs it names and
keeps one sampler on each of them for the whole run.  A sampler is a
process of its own: it shares no heap, collector or interpreter lock with
the program, and the median of a few back-to-back chunks drops the first
one, which may find the caches filled by the job.  Each sample takes about
1 ms of CPU time, about 2% of the CPU at the sampling period.
"""

import json
import os
import select
import subprocess
import sys
import time

PERIOD_S = 0.05
# samples this long before and after a job's window still describe it
MARGIN_S = 0.1


def _pairs(n: int):
    for i in range(n):
        yield i, i + 1


def _mix(a: int, b: int) -> int:
    return (a ^ b) & 1023


def speed_chunk() -> int:
    """Fixed pure-Python work of generator resumes, calls and tuple
    unpacking, like the program's own inner loops."""
    acc = 0
    for _ in range(150):
        for a, b in _pairs(8):
            acc += _mix(a, b)
    return acc


def chunk_time(reps: int = 3) -> float:
    """Median CPU time of ``speed_chunk`` over a few back-to-back runs."""
    times = []
    for _ in range(reps):
        t0 = time.thread_time()
        speed_chunk()
        times.append(time.thread_time() - t0)
    return sorted(times)[reps // 2]


class Samplers:
    """One sampler process per CPU, from ``start`` until ``stop``."""

    def __init__(self, cpus: list[int], tmp: str) -> None:
        self.paths = {cpu: os.path.join(tmp, f"speed{cpu}.json") for cpu in cpus}
        self.procs = [
            subprocess.Popen([sys.executable, __file__, str(cpu), path], stdin=subprocess.PIPE)
            for cpu, path in self.paths.items()
        ]
        self.samples: dict[int, list[tuple[float, float]]] = {}

    def stop(self) -> None:
        """End every sampler, wait for it and read its samples."""
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for cpu, path in self.paths.items():
            try:
                with open(path, encoding="ascii") as fh:
                    self.samples[cpu] = [tuple(s) for s in json.load(fh)]
            except (OSError, ValueError):
                self.samples[cpu] = []

    def chunk_s(self, cpus: list[int], window: tuple[float, float]) -> float | None:
        """Chunk time at the mean speed on ``cpus`` around ``window``, or None if unsampled.

        Work done is speed integrated over time, and speed is 1 / chunk time,
        so this is the harmonic mean of the samples.
        """
        lo, hi = window[0] - MARGIN_S, window[1] + MARGIN_S
        times = [c for cpu in cpus for t, c in self.samples.get(cpu, ()) if lo <= t <= hi]
        return len(times) / sum(1 / c for c in times) if times else None


def main(cpu: int, out_path: str) -> None:
    os.sched_setaffinity(0, {cpu})
    samples = []
    while True:
        t = time.monotonic()
        samples.append((t, chunk_time()))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(samples, fh)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
