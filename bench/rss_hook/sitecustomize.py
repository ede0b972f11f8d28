"""Peak memory report for the interpreters that the cli-mix workload starts.

Python imports this module at start-up when its directory is on
PYTHONPATH.  At exit it writes the process's peak resident set since exec
(VmHWM) as the last line of stderr.  ru_maxrss would not do: on exec,
Linux folds the parent's peak into it, so every child would report the
benchmark's own size.
"""

import atexit
import sys


def _report_peak():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write(f"\nvmhwm_kb {kb}\n")


atexit.register(_report_peak)
