"""The host-speed probe: fixed pure-Python work, timed on request.

Usage: ``python perfbench/calibrator.py``, then one line on standard input
per reading; each is answered with one line holding the reading in ms.  It
ends when its standard input closes.  ``common.HostClock`` starts it and
reads it between timed operations.

It runs in its own process so that its allocations never touch the
measured process's heap, garbage collector or peak RSS.  The work never
changes with the program, so its time tracks only the host.  A reading is
the geometric mean of three loops, each sensitive to another part of the
host: one that stays in the core's own cache, one that builds a heap of
about 10 MB, and one that reads a pre-built 50 MB heap in random order,
whose time follows the shared cache and memory.  With a process thrashing
memory on the other core every other 15 s, the time of a build divided by
the reading spread 0.167 (quartile distance over median, 112 builds),
against 0.274 for the build's time alone, 0.219 for the first two loops'
mean and 0.311 for the first loop alone.
"""

from __future__ import annotations

import random
import statistics
import sys
import time


def cache_loop() -> int:
    """String formatting, dict and set updates, small tuples and a keyed
    sort, over a few hundred KB."""
    table: dict[str, set] = {}
    words = []
    for i in range(4000):
        word = f"w{i % 977}-{i * 7919 % 10007}"
        words.append((len(word), word, i))
        table.setdefault(word[:4], set()).add(i)
    words.sort(key=lambda item: (item[0], item[1]))
    return sum(len(members) for members in table.values()) + len(words)


def heap_loop() -> int:
    """Many small dicts and lists, indexed and sorted: a heap larger than
    the core's cache."""
    records = [
        {"id": i, "name": f"e{i}", "links": [i, i + 1]} for i in range(30000)
    ]
    index: dict[str, list] = {}
    for record in records:
        index.setdefault(record["name"][-2:], []).append(record["id"])
    ordered = sorted(records, key=lambda r: (r["name"][::-1], r["id"]))
    return len(ordered) + len(index)


#: The random-order walk's heap: about 50 MB of small tuples, built once.
_HEAP = [(i, str(i)) for i in range(400_000)]
_ORDER = random.Random(1).choices(range(len(_HEAP)), k=100_000)


def walk_loop() -> int:
    """Random-order reads over :data:`_HEAP`."""
    total = 0
    for i in _ORDER:
        total += _HEAP[i][0]
    return total


def _ms(loop) -> float:
    started = time.perf_counter()
    loop()
    return (time.perf_counter() - started) * 1000.0


def reading() -> float:
    """One reading, in ms."""
    cache = statistics.median(_ms(cache_loop) for __ in range(3))
    return (cache * _ms(heap_loop) * _ms(walk_loop)) ** (1.0 / 3.0)


def main() -> int:
    cache_loop()  # warm up: the first run in a process is slower
    heap_loop()
    walk_loop()
    for __ in sys.stdin:
        print(f"{reading()!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
