#!/usr/bin/env python3
"""Run a command and write its peak resident set size, in MB, to a file.

The command inherits standard input, output and error, so its output can
be piped on, and the script exits with the command's status.  The figure
is getrusage(RUSAGE_CHILDREN).ru_maxrss / 1024: the largest peak RSS of any
process the command's tree waited for (ru_maxrss is in KiB on Linux).

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
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    Path(out).write_text(f"{peak:.1f}\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
