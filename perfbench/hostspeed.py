"""Host-speed sampling, so that pass times from different moments compare.

The shared 2-vCPU host this benchmark was tuned on drifts between a fast
state and one up to twice as slow, for seconds to tens of seconds at a
time, so whole passes and whole runs land in one state.  The program's
time alone then tells more about the host than about the program.

A ``Sampler`` therefore interrupts the pass every ``INTERVAL_S`` (a
SIGALRM timer) and times a fixed integer loop, ``spin``, in the main
thread.  The loop allocates no container, so the program's heap and the
garbage collector do not slow it; only the host does.  The time spent
sampling is kept out of ``Sampler.clock``, and ``scale`` turns a time
into seconds on a reference host, one on which ``spin`` takes
``REF_SPIN_S``.  On the tuning host the rescaled pass time varied 2-4x
less from pass to pass than the measured one.  Rescaling each item by
the samples taken around it, instead of by the whole pass's, was no
steadier.

Samples are taken in the main thread, also while the minimality survey's
worker threads run: the handler holds the interpreter lock for the whole
spin, which is shorter than the lock's switch interval, and on the
tuning host spins with and without busy worker threads took the same
time.
"""

from __future__ import annotations

import signal
from statistics import mean
from time import perf_counter

INTERVAL_S = 0.1
SPIN_ROUNDS = 25_000  # about 2 ms of pure-Python integer arithmetic
REF_SPIN_S = 0.002


def spin() -> int:
    s = 0
    for i in range(SPIN_ROUNDS):
        s += i * i % 7
    return s


class Sampler:
    """Context manager: samples host speed while the block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds per spin
        self.stolen = 0.0  # seconds spent in the handler
        self._previous = None

    def _sample(self, _signum=None, _frame=None) -> None:
        begin = perf_counter()
        spin()
        self.samples.append(perf_counter() - begin)
        self.stolen += perf_counter() - begin

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return perf_counter() - self.stolen

    def spin_s(self) -> float:
        """Interquartile mean of the samples: the host's typical speed
        over the block, with preempted samples left out."""
        xs = sorted(self.samples)
        quarter = len(xs) // 4
        return mean(xs[quarter : len(xs) - quarter])

    def scale(self) -> float:
        """Factor from this block's seconds to reference-host seconds."""
        return REF_SPIN_S / self.spin_s()
