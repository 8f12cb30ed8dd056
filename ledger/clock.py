"""Wall time corrected for the speed the machine had at the moment.

On a shared host the same Python code runs up to 1.8x slower while
another tenant loads the core, and such spells last from under a second
to minutes.  A :class:`Stopwatch` splits a timed phase into blocks of
:data:`BLOCK_S`, cut by a real-time interval timer whatever code is
running, and runs a fixed pure-Python probe between them.  Each block's
wall time is divided by the faster of the probes on either side of it,
which measures the block in probe runs whatever the machine's speed
was, and multiplied by :data:`PROBE_S` to give *reference seconds*:
seconds on a machine where one probe run takes exactly ``PROBE_S``.

The probe is the ledger's own code and calls nothing in the program, so
a change to the program cannot move it.  It runs with the cyclic
garbage collector off: a collection it triggered would scan the
program's heap and time the heap's size instead of the machine.
"""

import gc
import signal
import time

#: Wall seconds per block: short against a spell of contention, long
#: against a probe.
BLOCK_S = 0.05

#: Wall seconds of one probe run that define a reference second: a round
#: figure near the probe's time on the 2-vCPU x86_64 VM (Python 3.11) the
#: ledger was tuned on.  It only scales the unit.
PROBE_S = 0.5e-3

_TAGS = ["w%d" % (i * 7919 % 1009) for i in range(400)]


class _Node:
    __slots__ = ("tag", "kids")

    def __init__(self, tag):
        self.tag = tag
        self.kids = []


def probe():
    """Wall seconds of a fixed mix of what the program does most: dict
    updates, small objects, string formatting, splitting and sorting."""
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    counts = {}
    root = _Node("root")
    for i, tag in enumerate(_TAGS):
        counts[tag] = counts.get(tag, 0) + i
        root.kids.append(_Node(tag))
    text = "".join("<%s>%d</%s>" % (kid.tag, counts[kid.tag], kid.tag) for kid in root.kids)
    text.split("><").sort()
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


class Stopwatch:
    """Blocks of one timed phase, each with the probes around it; the
    phase is the body of a ``with Stopwatch() as clock:`` block."""

    def __init__(self):
        self.blocks = []
        self.probes = []
        self._start = 0.0
        self._previous_handler = None

    def __enter__(self):
        self.probes.append(probe())
        self._previous_handler = signal.signal(signal.SIGALRM, self._alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, BLOCK_S, BLOCK_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.mark()
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def _alarm(self, _signum, _frame):
        self.mark()

    def mark(self):
        """Close the current block and probe the machine's speed."""
        self.blocks.append(time.perf_counter() - self._start)
        self.probes.append(probe())
        self._start = time.perf_counter()

    def wall_s(self):
        return sum(self.blocks)

    def reference_s(self):
        probes = self.probes
        return PROBE_S * sum(
            block / min(probes[i], probes[i + 1]) for i, block in enumerate(self.blocks)
        )
