"""Calibration loop that shares one CPU with the measured process.

Usage: ``python3 bench/calibrator.py COUNTER_FILE``.  COUNTER_FILE holds two
native 64-bit integers: the loop writes its iteration count to the first
after every iteration and stops once the second is non-zero.  The benchmark
pins this process (at a lower priority) and the measured one to the same
CPU, so the scheduler splits that CPU between them in a fixed ratio and the
iterations the loop completes while the pipeline runs are proportional to
the CPU capacity the pipeline received, whatever share of the host the CPU
got meanwhile.
"""

import mmap
import sys


def main() -> int:
    with open(sys.argv[1], "r+b") as fh, mmap.mmap(fh.fileno(), 16) as mm:
        slots = memoryview(mm).cast("q")
        n = 0
        while slots[1] == 0:
            s = 0
            for k in range(200):
                s += k * k
            n += 1
            slots[0] = n
        slots.release()
    return 0


if __name__ == "__main__":
    sys.exit(main())
