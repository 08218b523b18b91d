"""The ``qgroups`` console script, plus the stamps the benchmark reads.

Usage: python3 perfbench/cli_shim.py STAMP.json [SPANS] -- QGROUPS-ARGS...

Does what the installed ``qgroups`` entry point does (import qgroups.cli,
call ``main`` and exit with its code), with qgroups taken from the
checkout's src.  It writes the import time and the moment it became ready
to STAMP.json; with SPANS it installs the tracer first and writes the spans
there when ``main`` returns.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv):
    split = argv.index("--")
    stamp_path, spans = argv[0], (argv[1] if split > 1 else None)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    t0 = time.perf_counter_ns()
    from qgroups.cli import main as qgroups_main

    t1 = time.perf_counter_ns()
    store = None
    if spans:
        import tracer

        store = tracer.install(tracer.SpanStore())
        store.current_item = 0
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump({"ready_ns": time.perf_counter_ns(), "import_s": (t1 - t0) / 1e9}, fh)
    code = qgroups_main(argv[split + 1:])
    if store is not None:
        store.current_item = -1
        store.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
