"""One set-up sample: import the program, build the first model, warm caches.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <spawn_time>``,
where ``spawn_time`` is CLOCK_MONOTONIC (system-wide) just before the
parent started this interpreter.  Prints the seconds from spawn to warm.
"""

import sys
import time

from run import OUT_DIR, import_program


def main() -> None:
    workload, seed, spawned = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    import_program()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, OUT_DIR)
    wl.warm(next(wl.rounds())[0])
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC) - spawned))


if __name__ == "__main__":
    main()
