"""Command-line entry point of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload wifi_stream --seed 1 \\
        --seconds 20 --trace 0

runs one workload in this process and prints its report.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` every workload runs, each in a fresh subprocess, one
after another.  ``--out FILE`` appends each workload's full record
(both metric sets when traced, the stage table, the gates, the digest
and the environment fingerprint) to FILE as one JSON line.

The program under test is imported from ``src/`` of the checkout this
file sits in, never from anywhere else.  The exit code is 0 only when
every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = ("wifi_stream", "multistd_hotswap", "energy_storm",
                  "fig6_sweep")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it."""
    for path in (ROOT, ROOT / "src"):
        sys.path.insert(0, str(path))
    import repro

    source = Path(repro.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro was imported from {source}, "
                         f"not from {ROOT / 'src'}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint() -> dict:
    """The machine and build a result was measured on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _git_commit(),
    }


def _report(record: dict) -> None:
    """Print the record for a reader: metrics, stages, gates."""
    from benchmarks.e2e.tracing import format_table

    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['seconds']:g} s, trace {int(record['trace'])}) ==")
    print(f"why: {record['why']}")
    print(f"fingerprint: {json.dumps(record['fingerprint'])}")
    for title in ("e2e", "per_layer"):
        for name, metric in record.get(title, {}).items():
            n = f"  (n={metric['n']})" if "n" in metric else ""
            print(f"  {name:<38}{metric['value']:>14.6g} {metric['unit']}{n}")
    if "stages" in record:
        print(format_table(record["stages"], record["traced_wall_ns"],
                           "stage table"))
    for gate, verdict in record["gates"].items():
        print(f"  gate {gate:<30}{verdict}")
    print(f"digest {record['digest']}  attempted {record['attempted']}  "
          f"failed {record['failed']}  detail {json.dumps(record['detail'])}")


def run_one(name: str, seed: int, seconds: float, trace: bool,
            out: str | None) -> int:
    from benchmarks.e2e.harness import measure
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[name]()
    record = measure(workload, seed, seconds, trace)
    record.update(workload=name, why=workload.why, seed=seed,
                  seconds=seconds, trace=trace, fingerprint=fingerprint())
    _report(record)
    if out:
        with open(out, "a", encoding="utf-8") as ledger:
            ledger.write(json.dumps(record, sort_keys=True) + "\n")
    metrics = record["per_layer" if trace else "e2e"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own fresh process, one at a time."""
    failed = []
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        sys.stdout.flush()
        if subprocess.run(command, check=False).returncode != 0:
            failed.append(name)
    print(f"workloads failed: {failed}" if failed else "all workloads correct")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed-pass budget per workload (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced pass and per-layer metrics")
    parser.add_argument("--out", help="append full JSON records here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    _import_program()
    return run_one(args.workload, args.seed, args.seconds,
                   bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
