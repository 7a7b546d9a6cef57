"""A fixed piece of pure-Python work that sets the benchmark's unit of time.

The benchmark's durations are CPU times, and on a shared virtual machine the
CPU itself runs faster or slower from one second to the next (other tenants
on the same physical core, cache and memory contention, frequency changes):
identical work has taken 1.6x longer within a minute, and the speed changes
within a single two-second step. That drift moves every duration, whatever
the program does. So while the program is timed, `Sampler` interrupts it
every few milliseconds of CPU time to run `kernel()`, and a step's CPU time
(less the kernel calls inside it) is divided by the mean CPU time of the
kernel calls made during and around it. Multiplied by REF_CALL_S, that gives
the step's duration on a machine where one kernel call takes exactly
REF_CALL_S.

The kernel is a small discrete-event loop (a heap of timed messages, handlers
on slotted objects, dict counters), the same kind of interpreter work that
dsmlab's simulator and checker do, so it slows down with the machine in the
same way. It is fixed: it takes no input and does not depend on dsmlab, so a
change to dsmlab changes the program's times and not the unit.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import time

# Thread CPU time: while a process CPU timer is armed, Linux reads of the
# process CPU clock can lag by milliseconds, and the benchmark runs one thread.
_clock = time.thread_time

# Nominal CPU time of one kernel() call: the unit that normalized durations
# are expressed in. About what one call takes on the 2-vCPU machine the
# benchmark was written on.
REF_CALL_S = 0.0005
# CPU time between two kernel calls, and how far before and after a step the
# calls that normalize it are taken from.
INTERVAL_S = 0.005
HALO_S = 0.1

EXPECTED = 1605  # kernel()'s return value; a different one is a broken kernel


class _Node:
    __slots__ = ("value", "seen")

    def __init__(self) -> None:
        self.value = 0
        self.seen: dict = {}

    def handle(self, src: int, value: int) -> int:
        if value > self.value:
            self.value = value
        self.seen[src] = self.seen.get(src, 0) + 1
        return self.value


def kernel() -> int:
    """Deliver about 460 messages among 7 nodes; returns a checksum."""
    nodes = [_Node() for _ in range(7)]
    heap: list = []
    x = 12345
    for seq in range(60):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 997, seq, seq % 7, seq))
    total = 0
    while heap:
        tick, seq, dst, value = heapq.heappop(heap)
        total += nodes[dst].handle(seq % 5, value) & 7
        if seq < 600 and seq % 3:
            heapq.heappush(heap, (tick + seq % 13 + 1, seq + 60, (dst + 1) % 7, value + 1))
    result = total + sum(len(n.seen) for n in nodes) + sorted(n.value for n in nodes)[3]
    if result != EXPECTED:
        raise RuntimeError(f"reference kernel returned {result}, not {EXPECTED}")
    return result


class Sampler:
    """Calls kernel() from a SIGPROF handler every INTERVAL_S of this
    process's CPU time while active (a context manager), and records when
    each call started and how long it took, in CPU seconds.

    Python runs the handler in the main thread between two bytecodes of
    whatever is running, so the kernel calls interleave finely with the
    program's own work and see the same machine speed."""

    def __init__(self) -> None:
        self.starts: list = []
        self.prefix = [0.0]  # prefix[j] = CPU seconds of the first j calls
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = _clock()
        kernel()
        t1 = _clock()
        self.starts.append(t0)
        self.prefix.append(self.prefix[-1] + (t1 - t0))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> tuple[float, float]:
        """(CPU time, CPU time spent in kernel calls so far), read
        with the handler held off so that the two agree."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            return _clock(), self.prefix[-1]
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})

    def normalize(self, start: tuple, end: tuple) -> tuple[float, float]:
        """For a step between two marks: (its CPU seconds outside kernel
        calls, the same in reference units). The unit comes from the kernel
        calls that started within HALO_S of the step, or from the nearest
        ones when there are none there."""
        (t0, r0), (t1, r1) = start, end
        program = (t1 - t0) - (r1 - r0)
        lo = bisect.bisect_left(self.starts, t0 - HALO_S)
        hi = bisect.bisect_right(self.starts, t1 + HALO_S)
        if lo == hi:  # no call near the step: widen to the closest ones
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if lo == hi:
            raise RuntimeError("no reference kernel call was made")
        per_call = (self.prefix[hi] - self.prefix[lo]) / (hi - lo)
        return program, program * REF_CALL_S / per_call
