"""One workload in one process: set up its inputs, then run ops until time is up.

Run from the repository root by ``run.py``; prints one JSON object.
``--setup-only`` stops once the inputs are written, so the caller can
time set-up alone.  With ``--trace 0`` every op runs under a
``reference.Gauge``, which scales its times to the reference speed.
With ``--trace 1`` no op is gauged, and untraced and traced ops alternate
until ``MAX_TRACED_OPS`` are traced: the traced ones give the per-layer
figures, and each one's difference from the untraced op before it is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import reference

# Enough traced ops for stable per-layer medians; more only grow the
# span file (about 75k spans per deploy_scale op).
MAX_TRACED_OPS = 5


def monotonic() -> float:
    """A clock shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_op(cli, workload, gauged: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    codes = []
    gauge = reference.Gauge() if gauged else contextlib.nullcontext()
    with gauge, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.process_time()
        for argv in workload.commands():
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                codes.append(exc.code)
            except Exception:  # a crash is a failed op, as it would be for a user
                traceback.print_exc()
                codes.append(1)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    stdout = out.getvalue()
    problems = [f"exit codes {codes}: {err.getvalue()[-500:]}"] if any(codes) else []
    units = 0.0
    if not problems:
        try:
            problems = workload.check(stdout)
            units = workload.work_units(stdout)
        except Exception:  # output the oracle cannot read is wrong output
            problems = [f"output check failed: {traceback.format_exc(limit=2)}"]
    for name in workload.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(workload.path(name))
    op = {"wall_s": wall, "cpu_s": cpu, "units": units, "problems": problems}
    if gauged:
        op.update(gauge.scale(wall, cpu))
    return op


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the traced run's spans here as gzip CSV")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, required=True,
                        help="CLOCK_MONOTONIC reading just before this process was started")
    args = parser.parse_args()

    # Set-up is gauged too, from here on; the interpreter's own start-up
    # before this point is scaled by the same reading.
    with reference.Gauge() as gauge:
        sys.path.insert(0, "src")
        import iotdraw.cli as cli
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.workdir)
        sizes = workload.setup()
        ready = monotonic()
    setup = {"wall_s": ready - args.started, **gauge.scale(ready - args.started)}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    workload.prepare()
    recorder = None
    missing: list[str] = []
    if args.trace:
        import spans
        recorder = spans.SpanRecorder()
    ops = []
    start = time.perf_counter()
    while True:
        traced = (bool(args.trace) and len(ops) % 2 == 1
                  and sum(op["traced"] for op in ops) < MAX_TRACED_OPS)
        if traced:
            recorder.op_id = len(ops)
            first = len(recorder)
            restore, missing = spans.install(recorder)
        try:
            op = run_op(cli, workload, gauged=not args.trace)
        finally:
            if traced:
                restore()
        op["traced"] = traced
        op["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            op["layers"] = spans.layer_metrics(recorder, first, len(recorder))
        ops.append(op)
        elapsed = time.perf_counter() - start
        # Stop before an op that would run past the deadline, once three
        # ops (two in a traced run: one untraced, one traced) have run.
        if len(ops) >= (2 if args.trace else 3) and elapsed + op["wall_s"] > args.seconds:
            break
    if recorder is not None and args.spans:
        recorder.write_csv(args.spans)
    print(json.dumps({
        "setup": setup,
        "sizes": sizes,
        "ops": ops,
        "missing_trace_targets": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
