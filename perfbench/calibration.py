"""Machine-speed calibration of the end-to-end times.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes, which would swamp the changes it is meant to resolve. Between
the timed sections of a run (the import, each set-up, each operation) the
benchmark times a fixed kernel that touches nothing in sigclust: seeded
2-means restarts on a fixed 1000 x 100 matrix (small numpy calls, as in the
null loop), passes over a 16 MB matrix (memory-bound, as at d=20000) and
reading a 30000-cell CSV text into floats (pure Python, as in CSV parsing).
Its inputs never change, so its time measures the machine alone. End-to-end
times are scaled by ``NOMINAL_S`` over the run's median kernel time, giving
seconds on a machine as fast as a quiet one. The median over the whole run
is steadier than the samples next to any one section.
"""

from __future__ import annotations

import csv
import io
import statistics
import subprocess
import sys
import time

import numpy as np

from checks import reference_best_labels

NOMINAL_S = 0.08  # kernel time on a quiet 2-vCPU Xeon VM, OpenBLAS, one thread
POINT_RUNS = 3  # kernel runs per sample point
KERNEL_SEED = 20130523


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(KERNEL_SEED)
        variances = np.r_[np.full(5, 25.0), np.ones(995)]
        self.small = np.sqrt(variances)[:, None] * rng.standard_normal((1000, 100))
        self.large = rng.standard_normal((20000, 100))
        self.text = "\n".join(",".join(f"{v:.18e}" for v in row)
                              for row in rng.standard_normal((300, 100)))

    def seconds(self) -> float:
        t0 = time.perf_counter()
        reference_best_labels(self.small, 120, np.random.default_rng(0))
        for _ in range(28):
            self.large.T @ self.large[:, 0]
        sum(float(cell) for row in csv.reader(io.StringIO(self.text)) for cell in row)
        return time.perf_counter() - t0


def _serve() -> None:
    """Helper process: time the kernel once per ``run`` line on stdin, until EOF."""
    kernel = Kernel()
    for line in sys.stdin:
        if line.strip() != "run":
            break
        print(repr(kernel.seconds()), flush=True)


class Calibration:
    """Kernel times sampled between the timed sections of one run.

    With ``processes`` > 1 the kernel runs in that many processes at once,
    one per core a parallel workload keeps busy, and a sample is their mean.
    Helper processes live until :meth:`close`, which waits for each to end.
    """

    def __init__(self, processes: int = 1):
        self._kernel = Kernel()
        self._helpers = []
        self.samples: list[float] = []
        try:
            for _ in range(processes - 1):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, __file__, "--serve"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            self.sample()
        except BaseException:
            self.close()
            raise

    def sample(self) -> None:
        for _ in range(POINT_RUNS):
            for helper in self._helpers:
                helper.stdin.write("run\n")
                helper.stdin.flush()
            own = self._kernel.seconds()
            self.samples.append(statistics.mean(
                [own] + [float(helper.stdout.readline()) for helper in self._helpers]))

    def close(self) -> None:
        for helper in self._helpers:
            try:
                helper.stdin.close()  # EOF ends the helper's loop
            except OSError:
                pass
        for helper in self._helpers:
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    @property
    def scale(self) -> float:
        """Factor from this run's wall times to seconds at nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    _serve()
