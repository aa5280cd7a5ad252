"""Measurement primitives: calibration slice, run meter, order statistics.

Everything here is measured from outside ``repro``: a timed *cell* is one
call into the layers' public functions, bracketed by ``perf_counter``.

Why every time is calibrated: the 2-core sandbox this was sized on shares
its cores with co-tenants and moves between speed levels every 0.3-4 s;
identical work takes up to 2x longer in the slowest level, so raw seconds
of identical runs spread by ~20 %. A fixed slice of work that no ``repro``
code touches runs between cells, and a cell's seconds are divided by how
much slower than on the unloaded reference host the slices on either side
of it ran. What is left is 1-2 % within a process (code with another
instruction mix slows by a slightly different factor); raw seconds are
kept in the record as ``wall_s``.
"""

import gc
import math
import os
import resource
import statistics
import time

#: The slice has two parts, timed apart: Python object churn (the
#: simulator is mostly bytecode that allocates, looks up and calls) and
#: float32 matmuls. A host speed level slows the two by different factors
#: (bytecode x1.29, BLAS x1.42 between the two commonest levels), and a
#: workload slows like a blend of them: ``blas_share`` in the workload
#: table, measured as in README.md.
_PY_ITERS = 5000
_MATMULS = 240
#: what each part takes on the unloaded reference host; a slice's slowdown
#: is measured against them, so calibrated seconds read as seconds on
#: that host
REF_PY_S = 0.00099
REF_BLAS_S = 0.00261
REF_SLICE_S = REF_PY_S + REF_BLAS_S


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def add(self, x):
        return self.a + x


def _py_work():
    # the collector stays out: its cost follows the workload's garbage
    # and heap, and the slice must be the same work every time
    gc.disable()
    try:
        table, out = {}, []
        for i in range(_PY_ITERS):
            item = _Item(i, i + 1)
            table[i] = item
            out.append(item.add(i))
        return sum(out)
    finally:
        gc.enable()


def py_slowdown():
    """How much slower than on the reference host the Python part runs
    now (usable before NumPy loads: set-up, which includes the imports,
    is calibrated with it)."""
    started = time.perf_counter()
    _py_work()
    return (time.perf_counter() - started) / REF_PY_S


class Calibrator:
    """The calibration slice, with its fixed operands."""

    def __init__(self, blas_share):
        import numpy as np

        rng = np.random.default_rng(96)
        self._a = rng.standard_normal((96, 96)).astype(np.float32)
        self._b = rng.standard_normal((96, 96)).astype(np.float32)
        self._out = np.empty((96, 96), dtype=np.float32)
        self._matmul = np.matmul
        self._blas_share = blas_share

    def slice(self):
        """Run the slice; returns (slowdown against the reference host,
        cpu seconds spent)."""
        cpu = time.process_time()
        t0 = time.perf_counter()
        _py_work()
        t1 = time.perf_counter()
        for _ in range(_MATMULS):
            self._matmul(self._a, self._b, out=self._out)
        t2 = time.perf_counter()
        slowdown = ((1.0 - self._blas_share) * (t1 - t0) / REF_PY_S
                    + self._blas_share * (t2 - t1) / REF_BLAS_S)
        return slowdown, time.process_time() - cpu

    def scale(self):
        """Run the slice; returns the factor that turns seconds measured
        around now into reference-host seconds."""
        return 1.0 / self.slice()[0]


def children_cpu_s():
    """user+sys seconds of this process's live children (pool workers).

    ``RUSAGE_CHILDREN`` only counts children already waited for, and the
    pool outlives the timed runs, so the workers' clocks are read from
    ``/proc``. Returns 0.0 where ``/proc`` is unavailable.
    """
    me = os.getpid()
    ticks = 0
    try:
        entries = os.listdir("/proc")
    except OSError:
        return 0.0
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process exited while we were scanning
        if int(fields[1]) == me:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb():
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RunMeter:
    """One timed run: cells in, calibrated seconds out.

    A slice runs before every ``cal_stride``-th cell and once at
    ``close()``; the cells between two slices are divided by the mean of
    the two slowdowns. ``cal_stride`` is fixed per workload, so slices
    are ~50 ms of timed work apart whatever the cell size.
    """

    def __init__(self, calibrator, cal_stride, with_children=False):
        self._calibrator = calibrator
        self._cal_stride = cal_stride
        self._with_children = with_children
        self._segments = []       # [slowdown before, [cell seconds, ...]]
        self._calib_cpu_s = 0.0
        self._cells_seen = 0
        self._cpu_start = self._cpu_now()

    def _cpu_now(self):
        own = time.process_time()
        return own + children_cpu_s() if self._with_children else own

    def _slice(self):
        slowdown, cpu = self._calibrator.slice()
        self._calib_cpu_s += cpu
        return slowdown

    def time_cell(self, call):
        """Calibrate if due, then time ``call()``; its seconds are
        charged whether it returns or raises."""
        if self._cells_seen % self._cal_stride == 0:
            self._segments.append([self._slice(), []])
        self._cells_seen += 1
        started = time.perf_counter()
        try:
            return call()
        finally:
            self._segments[-1][1].append(time.perf_counter() - started)

    def close(self):
        """End the run; fills in the results below."""
        cpu_s = self._cpu_now() - self._cpu_start - self._calib_cpu_s
        slowdowns = [segment[0] for segment in self._segments] + [self._slice()]
        #: per-cell calibrated milliseconds, in execution order
        self.cell_ms = []
        #: timed seconds as the clock read them (the uncalibrated
        #: cross-check; on a shared host they spread ~20 %)
        self.wall_s = 0.0
        for index, (_, cells) in enumerate(self._segments):
            slowdown = (slowdowns[index] + slowdowns[index + 1]) / 2
            self.cell_ms += [seconds / slowdown * 1e3 for seconds in cells]
            self.wall_s += sum(cells)
        #: timed seconds, calibrated (reference-host seconds)
        self.ref_s = sum(self.cell_ms) / 1e3
        #: timed seconds in units of the calibration slice
        self.norm_time = self.ref_s / REF_SLICE_S
        #: user+sys seconds (workers included), calibrated like ref_s
        self.cpu_s = cpu_s * self.ref_s / self.wall_s


def quartiles(values):
    """(q1, median, q3) the way the acceptance check computes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values, fraction):
    """Nearest-rank percentile (no interpolation: a real sample)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def summarize(samples, unit):
    """Median + quartiles + count of one metric's per-run samples."""
    q1, median, q3 = quartiles(samples)
    return {
        "value": median, "unit": unit, "q1": q1, "q3": q3,
        "n": len(samples), "samples": list(samples),
    }
