"""Host speed, sampled between operations.

The benchmark's host is a few cores of a machine shared with other
virtual machines.  Its speed switches between phases up to 1.7x apart
that last from seconds to minutes, and CPU time slows with it, so raw
times from two runs compare the phases more than the program.

A fixed pure-Python kernel is timed before every cold operation.  It is
a toy network of 64 nodes passing messages, so it leans on the
interpreter the way the simulator does (attribute access, method calls,
small lists, ``random``), and it shares no code with the program.  A
run's times are scaled by ``REFERENCE_S`` over the kernel's mean sample
time in that run: real times by its real time, CPU times by its CPU
time.  The result, in ``ref-s``, is the time the operation would take on
a host that runs one sample in ``REFERENCE_S``; a change to the program
moves it, a change in the host's phase mostly does not.
"""

from __future__ import annotations

import random
import time
from typing import List

#: One sample's time on the host the benchmark was built on (2-core
#: Xeon at 2.1 GHz, Python 3.11), in its fast phase.
REFERENCE_S = 0.010
#: Kernel passes per sample (about 2.5 ms each on that host).
PASSES = 4
NODES = 64
TICKS = 150


class _Node:
    __slots__ = ("index", "queue", "sent")

    def __init__(self, index: int) -> None:
        self.index = index
        self.queue: List[int] = []
        self.sent = 0

    def tick(self, nodes: List["_Node"], rng: random.Random) -> None:
        if self.queue:
            dst = nodes[self.queue.pop(0)]
            dst.queue.append((dst.index * 7 + self.sent) % len(nodes))
            self.sent += 1
        elif rng.random() < 0.3:
            self.queue.append(rng.randrange(len(nodes)))


def kernel() -> int:
    rng = random.Random(1)
    nodes = [_Node(i) for i in range(NODES)]
    for _ in range(TICKS):
        for node in nodes:
            node.tick(nodes, rng)
    return sum(node.sent for node in nodes)


class Calibration:
    """Samples of the kernel's time, taken with ``sample()``."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.cpu_samples: List[float] = []

    def sample(self) -> None:
        # Thread CPU time: a server thread in the same process must not
        # count towards the kernel's.
        c0, t0 = time.thread_time(), time.perf_counter()
        for _ in range(PASSES):
            kernel()
        self.samples.append(time.perf_counter() - t0)
        self.cpu_samples.append(time.thread_time() - c0)

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def factor(self) -> float:
        """Multiply a real time measured in this run by this to get
        ref-s."""
        return REFERENCE_S / self.mean_s()

    def cpu_factor(self) -> float:
        """The same for a CPU time."""
        return REFERENCE_S * len(self.cpu_samples) / sum(self.cpu_samples)
