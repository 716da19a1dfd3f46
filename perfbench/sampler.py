"""Host-speed sampler: times a tiny fixed piece of work on one CPU, over and over.

    python3 perfbench/sampler.py CPU

Pinned to ``CPU``, it prints ``ready``, then every ``PERIOD_S`` runs
:func:`work` and keeps its end time (``time.monotonic()``, which every
process on the machine shares) and duration. When its standard input
closes, it prints them as one JSON line and exits.

``flow.py`` runs one next to each operation, on the CPU the operation runs
on. The shared host's two vCPUs drift in speed independently of each
other, by up to 1.7x within seconds, so only a sampler on the same CPU, in
the same seconds, sees the speed the operation got. The work is pure
interpreter code and nothing from ``src/``, so no change to the program
can speed it up.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

#: seconds between samples; one sample takes about a millisecond
PERIOD_S = 0.05


def work() -> dict:
    table: dict[int, int] = {}
    for i in range(5000):
        key = (i * 7919) % 1031
        table[key] = table.get(key, 0) + i
    return table


def main(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    work()
    print("ready", flush=True)
    samples = []
    while True:
        t0 = time.monotonic()
        work()
        t1 = time.monotonic()
        samples.append((t1, t1 - t0))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]))
