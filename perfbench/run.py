"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in a worker process
of its own (``worker.py``), which drives ``iotdraw.cli.main`` in-process
on inputs built from the seed and checks every op's output.  With
``--trace 0`` the last line of stdout carries the end-to-end metrics
listed in BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics of a traced run.  A result file with the environment, the
workload sizes and every op's figures is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUDGET_S = 170.0  # the whole run, set-up probes included, must end within 180 s
SETUP_PROBES = 8  # set-up-only processes before and again after the measured run


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code measured even without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "git_commit": git_commit(),
            "source_sha256": source_digest(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_worker(args, workdir: str, deadline: float, extra: list[str]) -> dict:
    """Run the worker; return its report."""
    env = {k: v for k, v in os.environ.items() if k != "IOTDRAW_SEED"}
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir, *extra,
               "--started", repr(monotonic())]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = monotonic() + BUDGET_S

    spec_path = ROOT / "BENCHMARK.json"
    needed = [ROOT / "src" / "iotdraw" / "cli.py", ROOT / "models" / "padova_fw.iot",
              ROOT / "models" / "freshness_demo.iot", spec_path]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"perfbench: not a complete iotdraw checkout, missing {', '.join(absent)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = f"perfbench/work/{args.workload}"
    (ROOT / workdir).mkdir(parents=True, exist_ok=True)

    def probe_setup() -> None:
        for _ in range(0 if args.trace else SETUP_PROBES):
            setups.append(run_worker(args, workdir, deadline, ["--setup-only"])["setup"])

    setups: list[dict] = []
    try:
        probe_setup()
        extra = ["--spans", str(results / f"{stem}.spans.csv.gz")] if args.trace else []
        report = run_worker(args, workdir, deadline, extra)
        setups.append(report["setup"])
        probe_setup()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    ops = report["ops"]
    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    failed = sum(1 for op in ops if op["problems"])
    record = {
        "workload": args.workload,
        "environment": environment(args),
        "sizes": report["sizes"],
        "samples": {"ops": len(ops), "untraced_ops": len(plain), "traced_ops": len(traced),
                    "setup": len(setups)},
        "failed_ops": failed / len(ops),
        "setups": setups,
        "median_raw_wall_s": statistics.median([op["wall_s"] for op in plain]),
        "median_raw_cpu_s": statistics.median([op["cpu_s"] for op in plain]),
    }
    if args.trace:
        values = {name: statistics.median([op["layers"][name] for op in traced])
                  for name in traced[0]["layers"]}
        values["trace.wall_s"] = statistics.median([op["wall_s"] for op in traced])
        # Each traced op against the untraced op just before it, which
        # ran in nearly the same machine conditions.
        values["trace.overhead_s"] = statistics.median(
            [op["wall_s"] - before["wall_s"] for before, op in zip(ops, ops[1:]) if op["traced"]])
        wanted = spec["per_layer"]
    else:
        # Times at the reference speed (see reference.py), so that the
        # host's drift in speed cancels out of them.
        rates = [op["units"] / op["scaled_wall_s"] for op in plain]
        values = {"wall_s": statistics.median([op["scaled_wall_s"] for op in plain]),
                  "cpu_s": statistics.median([op["scaled_cpu_s"] for op in plain]),
                  # After one op, as a CLI process would end; later ops
                  # add only allocator fragmentation.
                  "peak_rss_mb": ops[0]["peak_rss_mb"],
                  "work_per_s": statistics.median(rates),
                  "setup_s": statistics.median([s["scaled_wall_s"] for s in setups])}
        wanted = spec["end_to_end"]
        rate_name = "scenarios_per_s" if args.workload == "deploy_scale" else "ticks_per_s"
        record[rate_name] = values["work_per_s"]
        record["median_gauge_wall_s"] = statistics.median([op["gauge_wall_s"] for op in plain])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    record["missing_trace_targets"] = report["missing_trace_targets"]
    record["ops"] = ops
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for op in ops:
        for problem in op["problems"]:
            print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
