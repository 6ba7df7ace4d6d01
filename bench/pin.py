"""Recompute bench/pins.json: the expected outputs the runner checks against.

    python3 bench/pin.py

Run from the root of a placenet checkout.  It pins the sha256 of the
`solve --format json` report of every generated pipeline scenario (input
seeds 0 .. SEEDS-1), with and without --detail, and of
fixtures/example_s8.json, and the objective of
every generated planning LP and of fixtures/plan_small.json.  Each output
must pass its checks before it is pinned.  The pins encode the contract that
reports stay byte-identical; re-pin only in a change whose purpose is to
alter outputs, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import checks
import gen
import run

# Input seeds pinned; run.py generates a run's inputs from its seed modulo this.
SEEDS = 32


def report_digest(scenario: Path, pairs: int, out: Path, *extra: str) -> str:
    output = run._solve(scenario, out, *extra)
    failures = run._check_solve(output, pairs, None)
    if failures:
        raise SystemExit(f"{scenario}: {'; '.join(failures)}")
    return hashlib.sha256(output[1]).hexdigest()


def plan_objective(doc: dict) -> float:
    from placenet import optimizers

    x, objective = optimizers.solve_production_plan(optimizers.PlanInstance.from_dict(doc))
    failures = checks.check_plan(doc, x, objective, None)
    if failures:
        raise SystemExit(f"plan: {'; '.join(failures)}")
    return objective


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    out = run.ROOT / ".bench_out" / "pin"
    out.mkdir(parents=True, exist_ok=True)

    pins: dict = {"seeds": SEEDS}
    pins["example_s8"] = report_digest(run.FIXTURES / "example_s8.json", 6, out / "report.json")
    pins["plan_small"] = plan_objective(json.loads((run.FIXTURES / "plan_small.json").read_text()))
    for workload in ("synth-wide", "synth-transit"):
        pairs = math.comb(gen.PRESETS[workload]["plants"], 2)
        scenarios = [gen.write_inputs(workload, seed, out / str(seed))["scenario"] for seed in range(SEEDS)]
        pins[workload] = [report_digest(path, pairs, out / "report.json") for path in scenarios]
        pins[workload + ".detail"] = [
            report_digest(path, pairs, out / "report.json", "--detail") for path in scenarios
        ]
        print(f"{workload}: {SEEDS} reports pinned", flush=True)
    pins["solvers.plan"] = [
        plan_objective(gen.solver_instances(seed, gen.PRESETS["solvers"])["plan"])
        for seed in range(SEEDS)
    ]
    (run.BENCH / "pins.json").write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
