"""Start commands for run.py and report each one's own time and memory.

Reads one JSON argv list per line on stdin. For each, it runs the command to
its end and writes one JSON line ``[wall s, cpu s, peak RSS MB, exit code]``
to stdout. It stops when stdin closes.

The commands are started from this small process rather than from run.py.
When a process starts a program, the kernel folds the starting process's
peak RSS into the new program's ``ru_maxrss``. From run.py, which holds the
inputs and expected outputs, a 20 MB command would then read as run.py's
size.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        print(json.dumps([wall, cpu, usage.ru_maxrss / 1024, proc.returncode]), flush=True)


if __name__ == "__main__":
    main()
