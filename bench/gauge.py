"""Speed gauge: a fixed unit of work, run over and over in a process of its
own on the same CPU as the process it gauges, to measure how fast that CPU
is running while a timed operation runs.

On a shared VM the speed of a vCPU changes from one second to the next by up
to 1.8x, and the host's load drifts over minutes, so a wall or CPU time
alone says as much about the host as about the program.  Two processes that
share one CPU take turns on it every few milliseconds and see the same
speed; the mean CPU time of one gauge unit during an operation tells how
fast the CPU ran for it, and `scaled` turns the operation's CPU time into
seconds at a fixed reference speed.

    with Gauge("fft") as gauge:      # starts `python3 gauge.py fft`
        with gauge.window() as w:    # the gauge runs units only in a window
            ...                      # the timed operation
        seconds = w.scaled(cpu_s)    # cpu_s at the reference speed

The gauge process waits on its stdin: "go" starts units, "stop" ends them
and answers with the number of units and their CPU time in nanoseconds.  It
ends when its stdin closes.
"""

import os
import select
import subprocess
import sys
import time

# The CPU time of one unit at the reference speed: about the fast speed of
# the 2-vCPU Xeon VM the benchmark was tuned on.
REF_UNIT_S = 0.004


class Gauge:
    def __init__(self, kind: str):
        self.kind = kind

    def __enter__(self):
        # inherits this process's CPU affinity and thread settings
        self.proc = subprocess.Popen([sys.executable, __file__, self.kind],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def window(self) -> "Window":
        return Window(self.proc)


class Window:
    """The gauge runs while this context is open; afterwards `unit_s` is the
    mean CPU time of its units in it."""

    def __init__(self, proc):
        self.proc = proc
        self.unit_s = float("nan")

    def __enter__(self) -> "Window":
        self.proc.stdin.write("go\n")
        return self

    def __exit__(self, *exc):
        self.proc.stdin.write("stop\n")
        reply = self.proc.stdout.readline().split()
        if len(reply) != 2:
            raise RuntimeError(f"speed gauge stopped: {reply!r}")
        self.unit_s = int(reply[1]) / 1e9 / int(reply[0])

    def scaled(self, cpu_s: float) -> float:
        """`cpu_s` seconds of CPU time measured in this window, expressed
        in seconds at the reference speed."""
        return cpu_s * REF_UNIT_S / self.unit_s


def make_unit(kind: str):
    """One unit of the given kind of work, each about 4 ms at the reference
    speed: "fft" does transforms at the fold grids' sizes and a pointwise
    power, "interp" a cubic interpolation on a 6^5 periodic grid, the work
    of the stability comparison.  A gauge sees a CPU's speed for the kind of
    work it does; the two kinds are slowed by different amounts."""
    import numpy as np
    rng = np.random.default_rng(0)
    if kind == "fft":
        from numpy.fft import irfftn, rfftn
        a3, a4 = rng.random((16,) * 3), rng.random((12,) * 4)

        def unit():
            for _ in range(4):
                u = irfftn(rfftn(a3), s=a3.shape, axes=(0, 1, 2))
                irfftn(rfftn(a4), s=a4.shape, axes=(0, 1, 2, 3))
                abs(u) ** 5.0 + 0.1 * u
    elif kind == "interp":
        from scipy.ndimage import map_coordinates
        values, points = rng.random((6,) * 5), rng.random((5, 300)) * 6

        def unit():
            map_coordinates(values, points, order=3, mode="grid-wrap")
    else:
        raise ValueError(f"unknown gauge kind {kind!r}")
    return unit


def serve(kind: str) -> None:
    unit = make_unit(kind)
    unit()
    pending = b""

    def command() -> bytes:
        # unbuffered, so that select sees every command not yet read
        nonlocal pending
        while b"\n" not in pending:
            chunk = os.read(0, 64)
            if not chunk:
                return b""
            pending += chunk
        line, pending = pending.split(b"\n", 1)
        return line.strip()

    while command() == b"go":
        units = cpu_ns = 0
        while units == 0 or not (pending or select.select([0], [], [], 0)[0]):
            start = time.thread_time_ns()
            unit()
            cpu_ns += time.thread_time_ns() - start
            units += 1
        if command() != b"stop":
            return
        print(units, cpu_ns, flush=True)


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    serve(sys.argv[1])
