"""A gauge of the machine's speed, sampled all through an op to scale its times.

The benchmark's host is shared: its speed per CPU second drifts by up
to 2x, over stretches from a second to minutes, and wall and CPU time
drift together.  While a worker sets up, and while each op of an
untraced run runs, ``Gauge`` runs a small fixed kernel every
``PERIOD_S`` seconds of the process's CPU time, from a SIGPROF handler
in the same thread.  The op's time, less the kernel's own, is then
scaled by ``REF_S`` over the kernel's mean time in that op:
it reads as seconds on a machine where the kernel takes ``REF_S``.  The
drift slows the kernel and the op alike, so it cancels; on the host
this was set up on it took the spread of a 5 s op's time from 9% to 2%.

The kernel is interpreter-bound like the program: a tick loop over a
few devices with dict and attribute access, float arithmetic, a heap,
small tuples and some string formatting.  It uses nothing from
``iotdraw``, so no change to the program moves it, and it allocates
little, so it adds nothing to the peak memory the benchmark reports.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

# About the kernel's wall time on the 2-core Intel Xeon host that the
# benchmark was set up on, so that scaled times read close to real ones
# there; the host's own readings ranged from 0.9 to 1.8 ms.
REF_S = 0.001
PERIOD_S = 0.025  # CPU seconds between samples: about 4% of an op's time
KERNEL_TICKS = 300
CHECKSUM = 12449


class _Device:
    __slots__ = ("name", "interval", "charge", "served")

    def __init__(self, name: str, interval: int, charge: float):
        self.name, self.interval, self.charge, self.served = name, interval, charge, 0


def kernel(ticks: int = KERNEL_TICKS) -> int:
    devices = {f"d{i}": _Device(f"d{i}", 1 + i % 4, 500.0 + 25 * i) for i in range(8)}
    due = [(d.interval, name) for name, d in devices.items()]
    heapq.heapify(due)
    events: list[tuple[int, str, float]] = []
    counts: dict[str, int] = {}
    lines = 0
    for tick in range(ticks):
        while due[0][0] <= tick:
            _, name = heapq.heappop(due)
            device = devices[name]
            device.charge -= 0.0125 * (1.0 + (tick % 7) / 7.0)
            if device.charge > 0.0:
                device.served += 1
                kind = "Sample" if tick % 3 else "Request"
                counts[kind] = counts.get(kind, 0) + 1
                events.append((tick, name, device.charge))
            heapq.heappush(due, (tick + device.interval, name))
        if tick % 100 == 0:  # flush, so the kernel's memory stays small
            lines += len(f"{tick},{len(events)},{counts.get('Sample', 0)}")
            events.clear()
    return sum(d.served for d in devices.values()) * 10 + lines + len(counts)


def _checked_kernel() -> bool:
    """Run the kernel once; whether its checksum was right.

    The collector is held off meanwhile: a collection the kernel's
    allocations set off would scan the program's objects, and its cost
    would then depend on the program.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return kernel() == CHECKSUM
    finally:
        if collecting:
            gc.enable()


class Gauge:
    """Samples the kernel through a ``with`` block; ``scale`` then adjusts its times."""

    def __init__(self):
        self.samples = 0
        self.wall = self.cpu = 0.0  # the kernel's total time in the block
        self.wrong = 0

    def _sample(self, signum=None, frame=None) -> None:
        # Thread time: while ITIMER_PROF is armed, the process CPU clock
        # advances only at scheduler ticks, too coarsely for the kernel.
        wall, cpu = time.perf_counter(), time.thread_time()
        # Raising here would land in the program's code, so only count it.
        self.wrong += not _checked_kernel()
        self.wall += time.perf_counter() - wall
        self.cpu += time.thread_time() - cpu
        self.samples += 1

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scale(self, wall: float, cpu: float | None = None) -> dict:
        """The block's wall (and CPU) seconds, less the kernel's, at the reference speed."""
        wall -= self.wall
        if cpu is not None:
            cpu -= self.cpu
        if self.samples == 0:  # a block shorter than PERIOD_S: gauge it just after
            self._sample()
        if self.wrong:
            raise RuntimeError("the reference kernel gave a wrong checksum")
        scaled = {"gauge_samples": self.samples,
                  "gauge_wall_s": self.wall / self.samples,
                  "scaled_wall_s": wall * REF_S * self.samples / self.wall}
        if cpu is not None:
            scaled["gauge_cpu_s"] = self.cpu / self.samples
            scaled["scaled_cpu_s"] = cpu * REF_S * self.samples / self.cpu
        return scaled
