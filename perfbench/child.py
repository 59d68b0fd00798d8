"""One pass: a fresh interpreter that runs a list of ``affrep`` CLI commands.

Started by ``run.py`` as ``python -I perfbench/child.py ROOT`` with a JSON
spec on stdin; prints one JSON report on stdout.  Nothing but ``os``,
``sys`` and ``time`` is imported before ``affrep.cli``, so the ``ready``
stamp (CLOCK_MONOTONIC, comparable across processes) marks the end of the
CLI's own set-up: interpreter start plus ``import affrep.cli``, which took
``ready_cpu`` CPU seconds.  A pass's commands are bracketed by the
monotonic stamps ``start`` and ``end`` and took ``pass_cpu_s`` CPU seconds.

Spec keys: ``mode`` is ``setup`` (stop once ready), ``plain``, ``trace``
(wrap every layer) or ``spot`` (wrap only the spot-figure calls);
``commands`` is a list of argv lists; ``spans`` is where a traced pass
writes its spans (other modes ignore it).
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(sys.argv[1], "src"))
import affrep.cli  # noqa: E402

READY = time.monotonic()
READY_CPU = time.process_time()

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def run_commands(commands, span):
    """Run each argv through ``affrep.cli.main``; returns (results, seconds, CPU seconds)."""
    results = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span():
                rc = affrep.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, recorded with its traceback
            error = traceback.format_exc()
        results.append(
            {
                "argv": argv,
                "rc": rc,
                "stdout": out.getvalue(),
                "stderr": err.getvalue()[-2000:],
                "error": error,
            }
        )
    return results, time.perf_counter() - t0, time.process_time() - c0


def main() -> None:
    spec = json.load(sys.stdin)
    report = {"ready": READY, "ready_cpu": READY_CPU, "affrep": os.path.abspath(affrep.cli.__file__)}
    if spec["mode"] != "setup":
        recorder = None
        span = contextlib.nullcontext
        if spec["mode"] in ("trace", "spot"):
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import layers
            import spans

            recorder = spans.SpanRecorder()
            targets = layers.LAYER_TARGETS if spec["mode"] == "trace" else layers.SPOT_TARGETS
            spans.install(recorder, targets)
            if spec["mode"] == "trace":
                span = functools.partial(recorder.span, layers.ROOT_SPAN)
        start = time.monotonic()
        results, wall, pass_cpu = run_commands(spec["commands"], span)
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        report.update(
            commands=results,
            wall_s=wall,
            start=start,
            end=time.monotonic(),
            pass_cpu_s=pass_cpu,
            rss_kb=own.ru_maxrss,
            cpu_s=own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        )
        if recorder is not None:
            report.update(
                recorder.aggregate(),
                counters=dict(recorder.counters),
                peaks=dict(recorder.peaks),
                marks=recorder.marks,
                missing=recorder.missing,
            )
            if spec.get("spans"):
                recorder.dump(Path(spec["spans"]))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
