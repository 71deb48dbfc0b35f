"""Run one fewtune CLI command through `fewtune.cli.main` and record its timings.

    python3 probe.py STATS_JSON RUN_ID TRACE -- <fewtune arguments>

Writes STATS_JSON with CLOCK_MONOTONIC stamps (comparable with the
parent's `time.monotonic()`), the exit code, and the resource usage of
this process and of its waited-for children (the eval pool workers).
`t_setup_done` is the first entry into `run_eval`, `ablate` or
`meta_train`: everything before it is interpreter start, imports,
dataset load and snapshot load. With TRACE=1 the public functions are
wrapped by `tracer.Tracer` and the spans go to STATS_JSON with the
suffix `.spans.npz`.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    stats_path, run_id, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: probe.py STATS_JSON RUN_ID TRACE -- <fewtune arguments>")
    argv = sys.argv[5:]
    stats: dict = {"t_probe_start": time.monotonic()}

    from fewtune import cli

    stats["fewtune_file"] = cli.__file__
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()

    def stamp_first_call(fn):
        def stamped(*args, **kwargs):
            stats.setdefault("t_setup_done", time.monotonic())
            return fn(*args, **kwargs)

        return stamped

    for name in ("run_eval", "ablate", "meta_train"):
        setattr(cli, name, stamp_first_call(getattr(cli, name)))

    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    stats["t_main_done"] = time.monotonic()
    stats["rc"] = rc

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    stats["maxrss_kb"] = own.ru_maxrss
    stats["children"] = {
        "maxrss_kb": kids.ru_maxrss,
        "cpu_s": kids.ru_utime + kids.ru_stime,
        "nivcsw": kids.ru_nivcsw,
        "nvcsw": kids.ru_nvcsw,
    }
    if tracer is not None:
        tracer.dump(stats_path + ".spans.npz")
        stats["counters"] = tracer.counters
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
