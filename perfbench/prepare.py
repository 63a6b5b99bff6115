"""The set-up step of one benchmark run, as a process of its own: start
the interpreter, import the program and write the workload's seeded
input files. When done it prints ``time.monotonic()``, a system-wide
clock on Linux, so run.py can take setup_s as the time from its spawn
to this point; waiting for the exit would add the interpreter's teardown
and the polling interval of a wait with a timeout.

Usage: python3 perfbench/prepare.py WORKLOAD SEED WORKDIR
"""

import sys
import time

import workloads

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1:]
    workloads.prepare(workload, int(seed), workdir)
    print(time.monotonic())
