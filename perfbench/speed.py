"""The machine's speed, measured beside the program, to scale its times.

On a shared host the CPU's speed moves by a third or more over tens of
seconds, and so does every time the program takes: timed alone, two
runs of the same code a minute apart can differ by more than a
regression worth catching.  :func:`speed` runs a fixed piece of
interpreter work (tokenise a statement into a small tree, build and
group dict rows, sort them) for a short while and returns its rate as
a share of ``REFERENCE_RATE``.  The benchmark calls it between
slices of work, while the program is idle, and multiplies each time
the program took by the speed around it: the result is the time the
same work would take on a machine that runs the kernel at
``REFERENCE_RATE``.

The kernel's rate is taken over the calling thread's CPU time, so work
the program might leave running on other threads cannot slow the
kernel and pass for a slow machine, and it runs with the cyclic garbage
collector paused (it makes no cycles), so a larger heap of the program
cannot slow it either.  The kernel shares no code with the program: a
change to the program moves the program's times, never the speed.
"""

from __future__ import annotations

import gc
import time

#: Kernel rounds per CPU second that count as speed 1.0: about the
#: median rate over 30 runs of the benchmark on a shared 2-core x86-64
#: virtual machine with Python 3.11.
REFERENCE_RATE = 23000.0
#: Rounds between clock reads.
BATCH = 10


class _Node:
    __slots__ = ("kind", "text", "children")

    def __init__(self, kind: int, text: str) -> None:
        self.kind = kind
        self.text = text
        self.children: list[_Node] = []


_KEYWORDS = {"select": 1, "from": 2, "where": 3, "group": 4, "by": 5, "and": 6}
_WORDS = (
    "SELECT stage , COUNT(*) AS n FROM opportunity_i3 WHERE tenant = 17 "
    "AND amount > 250 AND status = 'open' GROUP BY stage"
).split()


def _round() -> int:
    root = _Node(0, "")
    for word in _WORDS:
        kind = _KEYWORDS.get(word.lower(), 0)
        node = _Node(kind, word)
        if kind:
            root.children.append(node)
        elif root.children:
            root.children[-1].children.append(node)
    rows = [{"id": i, "stage": i % 7, "amount": i * 3.5} for i in range(60)]
    groups: dict[int, int] = {}
    for row in rows:
        if row["amount"] > 50.0:
            groups[row["stage"]] = groups.get(row["stage"], 0) + 1
    ordered = sorted(rows, key=lambda r: -r["amount"])
    return len(root.children) + sum(groups.values()) + len(ordered)


def speed(seconds: float = 0.1) -> float:
    """Run the kernel for about ``seconds`` of wall time; its rate per
    CPU second of this thread, as a share of ``REFERENCE_RATE``."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        rounds = 0
        cpu = time.thread_time()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for _ in range(BATCH):
                _round()
            rounds += BATCH
        return rounds / (time.thread_time() - cpu) / REFERENCE_RATE
    finally:
        if collecting:
            gc.enable()
