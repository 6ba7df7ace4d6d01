"""placenet benchmark runner.

    python3 bench/run.py --workload synth-wide --seed 1 --seconds 30 --trace 0

Run from the root of a placenet checkout; the package is imported from
``src/``.  Inputs are generated from the seed (see gen.py), every op's output
is checked (see checks.py), and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run (see
tracer.py).  Files go to ``.bench_out/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import checks
import gen
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
SETUP_SAMPLES = 9

# Per-layer metrics: name -> (unit, span name, field).  Fields "time" and
# "self" are seconds; every other field is a count.  See README.md for what
# each should move.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "scenario.load_s": ("s", "scenario.load", "time"),
    "scenario.parse_s": ("s", "scenario.load", "self"),
    "network.floyd_s": ("s", "network.floyd", "time"),
    "network.floyd_calls": ("count", "network.floyd", "calls"),
    "network.nodes": ("count", "network.floyd", "nodes.max"),
    "network.floyd_relaxations": ("count", "network.floyd", "relaxations"),
    "scenario.distance_calls": ("count", "scenario.distance", "calls"),
    "costflow.raw_select_s": ("s", "costflow.raw_select", "time"),
    "costflow.raw_select_calls": ("count", "costflow.raw_select", "calls"),
    "costflow.raw_assignments": ("count", "costflow.raw_select", "assignments"),
    "costflow.pw_select_s": ("s", "costflow.pw_select", "time"),
    "costflow.pw_select_calls": ("count", "costflow.pw_select", "calls"),
    "costflow.pw_pairs": ("count", "costflow.pw_select", "pairs"),
    "costflow.greedy_flow_s": ("s", "costflow.greedy_flow", "time"),
    "costflow.greedy_flow_calls": ("count", "costflow.greedy_flow", "calls"),
    "costflow.flow_cells": ("count", "costflow.greedy_flow", "cells"),
    "production.allocate_s": ("s", "production.allocate", "time"),
    "production.economics_s": ("s", "production.economics", "time"),
    "production.economics_calls": ("count", "production.economics", "calls"),
    "agents.enumerate_self_s": ("s", "agents.enumerate", "self"),
    "agents.evaluate_s": ("s", "agents.evaluate", "time"),
    "agents.pairs": ("count", "agents.build_situation", "calls"),
    "agents.skipped": ("count", "agents.build_situation", "failed"),
    "compromise.select_s": ("s", "compromise.select", "time"),
    "compromise.depth": ("count", "compromise.select", "depth"),
    "report.build_s": ("s", "report.build", "time"),
    "report.render_s": ("s", "report.render", "time"),
    "report.bytes": ("count", "report.render", "bytes"),
    "cli.self_s": ("s", "cli.main", "self"),
    "optimizers.transport_s": ("s", "optimizers.transport", "time"),
    "optimizers.transport_cells": ("count", "optimizers.transport", "cells"),
    "optimizers.loading_s": ("s", "optimizers.loading", "time"),
    "optimizers.loading_cells": ("count", "optimizers.loading", "cells"),
    "optimizers.plan_s": ("s", "optimizers.plan", "time"),
    "optimizers.plan_vars": ("count", "optimizers.plan", "vars"),
}


def _solve(scenario: Path, out: Path, *extra: str) -> tuple[int, bytes]:
    """An in-process `placenet solve --format json`; (exit code, report bytes)."""
    from placenet import cli

    rc = cli.main(["solve", "-s", str(scenario), "--format", "json", "--out", str(out), *extra])
    return rc, out.read_bytes() if rc == 0 else b""


def _check_solve(output: tuple[int, bytes], pairs: int, digest: str | None) -> list[str]:
    rc, raw = output
    return [f"placenet solve exited {rc}"] if rc else checks.check_report(raw, pairs, digest)


class Pipeline:
    """One op is an in-process `placenet solve -s <scenario> --format json --out <file>`."""

    def __init__(self, paths: dict[str, Path], sizes: dict, digest: str | None, detail: str | None):
        self.scenario = paths["scenario"]
        self.out = self.scenario.with_name("report.json")
        self.pairs = math.comb(sizes["plants"], 2)
        self.digest, self.detail = digest, detail  # None for unpinned (toy) sizes

    def op(self) -> tuple[int, bytes]:
        return _solve(self.scenario, self.out)

    def check(self, output: tuple[int, bytes]) -> list[str]:
        failures = _check_solve(output, self.pairs, self.digest)
        if self.digest is None and not failures:
            # Unpinned (toy) inputs are still held to byte-identical reruns.
            self.digest = hashlib.sha256(output[1]).hexdigest()
        return failures

    def check_detail(self) -> list[str]:
        """Once per run, the same solve with --detail, untimed: only the detailed report
        shows which warehouses the tie rules chose."""
        try:
            output = _solve(self.scenario, self.out.with_name("detail.json"), "--detail")
            return [f"detail: {f}" for f in _check_solve(output, self.pairs, self.detail)]
        except Exception as exc:  # a check that raises fails, it does not end the run
            return [f"detail: {exc!r}"]


class Solvers:
    """One op is a round: balanced and unbalanced transportation, loading, planning."""

    def __init__(self, paths: dict[str, Path], sizes: dict, plan_pin: float | None):
        from placenet import optimizers

        self.docs = {key: json.loads(path.read_text()) for key, path in paths.items()}
        self.instances = {
            "transport": optimizers.TransportInstance.from_dict(self.docs["transport"]),
            "unbalanced": optimizers.TransportInstance.from_dict(self.docs["unbalanced"]),
            "loading": optimizers.LoadingInstance.from_dict(self.docs["loading"]),
            "plan": optimizers.PlanInstance.from_dict(self.docs["plan"]),
        }
        self.plan_pin = plan_pin

    def op(self) -> dict:
        from placenet import optimizers

        # Looked up on the module at call time, so the tracer's wrappers apply.
        return {
            "transport": optimizers.solve_transportation(self.instances["transport"]),
            "unbalanced": optimizers.solve_transportation(self.instances["unbalanced"]),
            "loading": optimizers.solve_loading(self.instances["loading"]),
            "plan": optimizers.solve_production_plan(self.instances["plan"]),
        }

    def check(self, results: dict) -> list[str]:
        return (
            checks.check_transport(self.docs["transport"], results["transport"])
            + checks.check_transport(self.docs["unbalanced"], results["unbalanced"])
            + checks.check_loading(self.docs["loading"], results["loading"])
            + checks.check_plan(self.docs["plan"], *results["plan"], self.plan_pin)
        )


def load_pins() -> dict:
    """Pinned outputs (see pin.py): report digests and plan objectives."""
    return json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))


def check_fixtures(out: Path, pins: dict) -> list[str]:
    """The bundled fixtures through the same paths and checks; once per run."""
    try:
        failures = _fixture_failures(out, pins)
    except Exception as exc:  # a fixture op that raises fails the check, not the run
        failures = [repr(exc)]
    return [f"fixtures: {f}" for f in failures]


def _fixture_failures(out: Path, pins: dict) -> list[str]:
    from placenet import optimizers

    def load(name: str) -> dict:
        return json.loads((FIXTURES / name).read_text())

    output = _solve(FIXTURES / "example_s8.json", out / "example_s8-report.json")
    failures = _check_solve(output, 6, pins["example_s8"])
    for name in ("transport_2x2.json", "transport_unbalanced.json"):
        doc = load(name)
        plan = optimizers.solve_transportation(optimizers.TransportInstance.from_dict(doc))
        failures += checks.check_transport(doc, plan)
    doc = load("loading_small.json")
    failures += checks.check_loading(
        doc, optimizers.solve_loading(optimizers.LoadingInstance.from_dict(doc))
    )
    doc = load("plan_small.json")
    x, objective = optimizers.solve_production_plan(optimizers.PlanInstance.from_dict(doc))
    return failures + checks.check_plan(doc, x, objective, pins["plan_small"])


def import_seconds() -> float:
    """Wall time of `import placenet` in a fresh interpreter that has already
    imported numpy, its only runtime dependency: the start-up cost placenet's
    own code controls.  numpy's own import varied 2x from minute to minute on
    a shared machine, which would hide any change to placenet's share."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
        "t = time.perf_counter(); import placenet; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(done.stdout)


class Run:
    """Times ops until a deadline and counts attempts and failures."""

    def __init__(self, runner, tracer: Tracer | None = None):
        self.runner = runner
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []

    def one(self, op_id: int) -> float | None:
        """One checked op; returns its time, or None when it raised."""
        self.attempted += 1
        gc.collect()
        if self.tracer is not None:
            self.tracer.op = op_id
        span = self.tracer.span("op") if self.tracer else nullcontext()
        elapsed = None
        try:
            start = time.perf_counter()
            with span:
                output = self.runner.op()
            # A wrong answer is still timed; an op that raises is not.
            elapsed = time.perf_counter() - start
            self.times.append(elapsed)
            failures = self.runner.check(output)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failures = [repr(exc)]
        if failures:
            self.failed += 1
            print(f"op {op_id} failed: {'; '.join(failures)}", file=sys.stderr)
        return elapsed

    def until(self, deadline: float, between) -> None:
        """Ops until the deadline (at least one); ``between()`` runs after each."""
        op_id = 1
        while True:
            self.one(op_id)
            op_id += 1
            between()
            if time.perf_counter() >= deadline:
                return


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Each metric is its median over the traced workload ops 1..ops, so
    counts repeat exactly; a layer a workload never calls reads 0."""
    per_op = tracer.per_op()
    values = {
        name: (statistics.median(
            per_op.get(op, {}).get(span, {}).get(field, 0) for op in range(1, ops + 1)
        ), unit)
        for name, (unit, span, field) in LAYER_METRICS.items()
    }
    pairs, skipped = values["agents.pairs"][0], values["agents.skipped"][0]
    values["agents.feasible_ratio"] = ((pairs - skipped) / pairs if pairs else 0.0, "ratio")
    return values


def _require_times(*runs: Run) -> None:
    if not all(r.times for r in runs):
        sys.exit("error: every op raised before returning; nothing was timed")


def end_to_end(runner, seconds: float) -> tuple[dict[str, tuple[float, str, str]], list[Run]]:
    import_seconds()  # unrecorded: the first import also writes the bytecode cache
    plain = Run(runner)
    start = time.perf_counter()
    # Set-up samples are spread over the window, like the ops, so both see
    # the same mix of machine states.
    setup: list[float] = []

    def sample_setup() -> None:
        due = start + len(setup) * seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and time.perf_counter() >= due:
            setup.append(import_seconds())

    plain.until(start + seconds, sample_setup)
    setup += [import_seconds() for _ in range(SETUP_SAMPLES - len(setup))]
    _require_times(plain)
    n = len(plain.times)
    return {
        "op_s_p50": (statistics.median(plain.times), "s", f"median of {n} ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} imports"),
    }, [plain]


def per_layer(runner, seconds: float, work: Path) -> tuple[dict[str, tuple[float, str, str]], list[Run]]:
    """Untraced and traced ops alternate until the deadline, each pair in
    turn starting with the other side, and the tracer is installed around
    each traced op only: both sides see the same machine states, so their
    ratio is the cost of tracing.  Returns the metrics and both Runs."""
    tracer = Tracer()
    plain, traced = Run(runner), Run(runner, tracer)

    def traced_op(op_id: int) -> float | None:
        tracer.install()
        try:
            return traced.one(op_id)
        finally:
            tracer.restore()

    ratios: list[float] = []
    deadline = time.perf_counter() + seconds
    op_id = 1
    while True:
        if op_id % 2:
            plain_s, traced_s = plain.one(op_id), traced_op(op_id)
        else:
            traced_s, plain_s = traced_op(op_id), plain.one(op_id)
        if plain_s and traced_s:
            ratios.append(traced_s / plain_s)
        op_id += 1
        if time.perf_counter() >= deadline:
            break
    (work / "spans.json").write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    if tracer.absent:
        print(f"absent (not traced): {', '.join(tracer.absent)}")
    _require_times(plain, traced)
    ops = traced.attempted
    metrics = {
        name: (value, unit, f"median of {ops} traced ops")
        for name, (value, unit) in layer_metrics(tracer, ops).items()
    }
    metrics["trace.op_s"] = (statistics.median(traced.times), "s", f"median of {len(traced.times)} traced ops")
    metrics["trace.overhead_ratio"] = (
        statistics.median(ratios), "ratio", f"median of {len(ratios)} traced/untraced op pairs",
    )
    return metrics, [plain, traced]


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    pins = load_pins()
    pinned = sizes is None
    sizes = gen.PRESETS[workload] if sizes is None else sizes
    input_seed = seed % pins["seeds"]  # every input has a pinned output
    work = ROOT / ".bench_out" / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    paths = gen.write_inputs(workload, input_seed, work, sizes)
    print(f"workload {workload}: seed {seed} (inputs {input_seed}), sizes {json.dumps(sizes)}")

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if workload == "solvers":
        runner = Solvers(paths, sizes, pins["solvers.plan"][input_seed] if pinned else None)
    else:
        digests = (pins[workload][input_seed], pins[workload + ".detail"][input_seed]) if pinned else (None, None)
        runner = Pipeline(paths, sizes, *digests)

    # Checks made once per run, untimed, each counted as one op.
    once = {"detail": runner.check_detail()} if isinstance(runner, Pipeline) else {}
    once["fixtures"] = check_fixtures(work, pins)
    # The checks above ran the same code paths as the ops, so nothing is left
    # to warm up: first-call costs are paid before the window opens.
    metrics, runs = per_layer(runner, seconds, work) if trace else end_to_end(runner, seconds)

    for failure in (f for failures in once.values() for f in failures):
        print(failure, file=sys.stderr)
    attempted = sum(r.attempted for r in runs) + len(once)
    failed = sum(r.failed for r in runs) + sum(bool(f) for f in once.values())
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")
    print(f"  attempted {attempted}, failed {failed}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="placenet benchmark runner")
    parser.add_argument("--workload", choices=sorted(gen.PRESETS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "placenet" / "__init__.py").is_file():
        print(f"error: no src/placenet under {ROOT}; run from a placenet checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
