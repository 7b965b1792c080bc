"""Set-up probe: a fresh process that gets ready to work, then exits.

``python perfbench/probe.py sweep DIR`` imports what a sweep through
``mcr-dram run`` needs and configures a harness session with an on-disk
store at DIR; ``python perfbench/probe.py verify DIR`` imports what
``python -m repro.verify`` needs. Either prints ``ready`` when done; the
caller times process start to that line.
"""

import sys

from common import preload

kind, directory = sys.argv[1], sys.argv[2]
preload(kind)
if kind == "sweep":
    from repro.harness import HarnessConfig, configure

    configure(HarnessConfig(parallel=1, cache_dir=directory))
print("ready", flush=True)
