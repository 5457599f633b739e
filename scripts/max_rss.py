#!/usr/bin/env python3
"""Run a command and write its peak resident set size, in MB, and its CPU
seconds to a file.

The command inherits standard input, output and error, so its output can
be piped on, and the script exits with the command's status.  Both figures
come from getrusage(RUSAGE_CHILDREN), which covers every process of the
command's tree that was waited for: the peak is ru_maxrss / 1024, the
largest peak RSS of any of them (ru_maxrss is in KiB on Linux), and the CPU
time is ru_utime + ru_stime, summed over all of them.  The file holds one
line, "MB SECONDS", so a shell reads it with `read -r mb cpu < OUT`.

Usage:
    python3 scripts/max_rss.py OUT COMMAND [ARG...]
"""

import resource
import subprocess
import sys
from pathlib import Path


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: max_rss.py OUT COMMAND [ARG...]", file=sys.stderr)
        return 2
    out, command = argv[0], argv[1:]
    status = subprocess.run(command).returncode
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    Path(out).write_text(f"{usage.ru_maxrss / 1024:.1f} {usage.ru_utime + usage.ru_stime:.2f}\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
