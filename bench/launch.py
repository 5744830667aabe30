"""Run one command and record its own wall time and resource use.

    python3 bench/launch.py RESULT_JSON ARGV...

The benchmark starts every measured command through this small process.
The peak RSS that the kernel reports for a child includes the memory of the
process that spawned it, so a command spawned straight from the benchmark
(which holds numpy, scipy and the corpus) would report the benchmark's size.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    process = subprocess.Popen(argv)
    try:
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        process.kill()
        os.wait4(process.pid, 0)
        raise
    wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": process.returncode,
    }
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
