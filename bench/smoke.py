"""Fast smoke check of the benchmark runner at toy sizes (about half a minute).

    python3 bench/smoke.py

Run from the root of a placenet checkout.  Every workload runs once untraced
and once traced on toy inputs.  It fails unless every op passes its checks
(including the pinned report digest of fixtures/example_s8.json and
byte-identical reports across reruns) and each run prints exactly the
metrics BENCHMARK.json names.  It is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import sys

import gen
import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload, sizes in gen.TOY_PRESETS.items():
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload, seed=1, seconds=1, trace=trace, sizes=sizes)
            where = f"{workload} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            expected = {metric["name"] for metric in spec[kind]}
            if set(result["metrics"]) != expected:
                problems.append(f"{where}: metrics differ: {sorted(set(result['metrics']) ^ expected)}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
