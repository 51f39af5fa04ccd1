#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload rescan --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric instead.  The last line of
standard output is the result object; the lines before it record the
inputs' digest and the environment.  Before printing, the result is
checked against ``BENCHMARK.json``: a missing, undeclared, unitless or
non-finite metric exits non-zero and names the offender.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: One BLAS thread: on a two-CPU machine the service's own two scorer
#: threads already use both CPUs, and BLAS threads on top of them make
#: the timings measure the scheduler.  Set before numpy is imported;
#: a value already in the environment wins.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
#: Scratch space and the trained-model cache, inside the checkout.
WORK = HERE / ".work"
CACHE = HERE / ".cache"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def contract_problems(result: dict, spec: dict, trace: bool) -> list[str]:
    """Everything wrong with ``result`` against ``BENCHMARK.json``."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) \
                or isinstance(result.get(key), bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    for name, unit in declared.items():
        metric = metrics.get(name)
        if metric is None:
            problems.append(f"missing metric {name}")
            continue
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number: "
                            f"{value!r}")
        if not metric.get("unit"):
            problems.append(f"metric {name} has no unit")
        elif metric["unit"] != unit:
            problems.append(f"metric {name} has unit {metric['unit']!r}, "
                            f"declared {unit!r}")
    for name in metrics:
        if name not in declared:
            problems.append(f"undeclared metric {name}")
    return problems


def source_digest() -> str:
    """sha256 over every file of the program's source tree."""
    sha = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(path.relative_to(src).as_posix().encode() + b"\0")
            sha.update(path.read_bytes() + b"\1")
    return sha.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None when the
    checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def environment(args, digest: str) -> dict:
    import numpy as np

    from repro.core.config import current_scale

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "blas_threads": {name: os.environ.get(name)
                         for name in BLAS_THREADS},
        "repro_scale": current_scale().name,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_digest": digest,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def group_percentile(run, q: float) -> float:
    """Median over latency groups of each group's percentile: a slow
    pass moves the figure by one sample, not by all its cases.  A run
    that completed no operation reads the whole window."""
    groups = [group for group in run.latency_groups if group]
    return statistics.median(percentile(group, q)
                             for group in groups or [[run.seconds]])


def end_to_end(run) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "cold_s": (statistics.median(run.cold_s), "s"),
        "p50_ms": (1000.0 * group_percentile(run, 50), "ms"),
        "p90_ms": (1000.0 * group_percentile(run, 90), "ms"),
        "f1": (run.f1, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(run, spec: dict) -> dict[str, tuple[float, str]]:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = dict(run.layer)
    values["failed_ratio"] = run.failed / run.attempted
    return {name: (values[name], units[name])
            for name in units if name in values}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("scan", "rescan"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check input determinism, poisoned-input "
                             "accounting and the output contract")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.setdefault("REPRO_SCALE", "small")
    for name in BLAS_THREADS:
        os.environ.setdefault(name, "1")
    spec = load_spec()

    digest = source_digest()
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.self_test:
            import selftest

            return selftest.main(spec, contract_problems, work, CACHE,
                                 digest)
        import workloads

        run = workloads.Run(seed=args.seed, seconds=args.seconds,
                            work=work, cache=CACHE, source_digest=digest,
                            trace=bool(args.trace))
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run.info["samples"] = {
        "setup": len(run.setup_s), "cold": len(run.cold_s),
        "latency_groups": len(run.latency_groups),
        "latencies": sum(len(group) for group in run.latency_groups)}
    run.info["cold_s"] = run.cold_s
    print("env " + json.dumps(environment(args, digest), sort_keys=True))
    print("run " + json.dumps(run.info, sort_keys=True))
    metrics = per_layer(run, spec) if args.trace else end_to_end(run)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    problems = contract_problems(result, spec, bool(args.trace))
    if problems:
        for problem in problems:
            print(f"perfbench: output contract: {problem}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
