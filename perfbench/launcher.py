"""Starts ops for run.py and reports each one's exit code, wall time and peak RSS.

Linux carries a process's peak RSS over from the process it was forked
from, so ops started straight from the benchmark (which holds the
oracle's arrays) would all report at least its size.  This process stays
small.  Protocol: one JSON request per stdin line
{argv, cwd, env, out, err, timeout}, one JSON reply per stdout line.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter

for line in sys.stdin:
    req = json.loads(line)
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"exit": proc.returncode, "wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}),
          flush=True)
