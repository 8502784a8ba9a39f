"""One scenario round in a fresh interpreter: ``python3 bench/child.py SPEC``.

SPEC is a JSON object with ``argv`` (the ``rabsim`` command line),
``trace`` (install the span wrappers first) and ``record`` (where to write
the result).  The round times the call of the CLI entry point
``rabsim.cli.main`` until it returns, by which point the CSV and the JSON
sidecar are written.  CPU time covers this process and the pool workers it
reaped during the call; peak RSS is that of the largest of them.  rabsim is
imported from ``PYTHONPATH``, which the driver points at the checkout's
``src``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import tracing


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    import rabsim
    from rabsim import cli

    recorder = tracing.install(rabsim) if spec["trace"] else None
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    exit_code = cli.main(spec["argv"])
    wall = time.perf_counter() - started
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "exit_code": exit_code,
        "solve_s": wall,
        "cpu_s": (_cpu(self_after) - _cpu(self_before))
                 + (_cpu(children_after) - _cpu(children_before)),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(self_after.ru_maxrss, children_after.ru_maxrss) * 1024 / tracing.MB,
    }
    if recorder is not None:
        record["spans"] = recorder.spans
        record["layers"] = tracing.layer_metrics(recorder.spans)
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
