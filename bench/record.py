"""Run the benchmark over several seeds and write a BENCH_<label>.json record.

    python3 bench/record.py --label baseline --seeds 1-10

Run from the root of a placenet checkout.  Each run is a fresh
``bench/run.py`` process that measures for BENCHMARK.json's ``run_seconds``.
For every workload BENCHMARK.json names the record holds each
end-to-end metric's values, median, quartiles and spread (interquartile
range over median), one traced run's per-layer metrics, the pinned report
digests of the seeds used, and the machine: commit, Python and numpy
versions, nproc, CPU model and the line count of src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import gen
import run


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=run.ROOT,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _machine() -> dict:
    import numpy

    def git(*args: str) -> str:
        try:
            return subprocess.run(["git", *args], capture_output=True, text=True,
                                  check=True, cwd=run.ROOT).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (run.SRC / "placenet").glob("*.py")
    )
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty_src": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines,
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="write a BENCH_<label>.json record")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    pins = run.load_pins()
    record = {"label": args.label, **_machine(), "seconds": seconds, "seeds": seeds,
              "example_s8_report_sha256": pins["example_s8"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            results.append(_bench(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {json.dumps(results[-1]['metrics'])}", flush=True)
        traced = _bench(workload, seeds[0], seconds, 1)
        entry = {
            "sizes": gen.PRESETS[workload],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                name: {"unit": spec["unit"], **summarize([r["metrics"][name]["value"] for r in results])}
                for name, spec in results[0]["metrics"].items()
            },
            "traced_seed": seeds[0],
            "layers": {name: spec["value"] for name, spec in traced["metrics"].items()},
        }
        if workload in pins:
            entry["report_sha256"] = {
                str(s): {key: pins[key][s % pins["seeds"]] for key in (workload, workload + ".detail")}
                for s in seeds
            }
        record["workloads"][workload] = entry
        for name, stats in entry["metrics"].items():
            print(f"{workload:14s} {name:12s} median {stats['median']:.6g} spread {stats['spread']:.3f}")
    path = run.BENCH / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
