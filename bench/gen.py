"""Seeded inputs for the benchmark: pipeline scenarios and solver instances.

Standard library only, so the inputs do not depend on the code under test.
The same (preset, seed) always yields byte-identical JSON: each document
draws from its own string-seeded ``random.Random``, and every float is
rounded to two decimals before it is written.

Usage::

    python3 bench/gen.py --workload synth-wide --seed 1 --out DIR

writes the workload's input files plus ``inputs.json`` (seed and sizes).
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

# Workload presets.  Sizes are the benchmark's contract: changing one changes
# every pinned digest (see pin.py).
PRESETS: dict[str, dict] = {
    # Product-warehouse pair search dominates: 120 plant pairs x 28 warehouse
    # pairs x 96 flow cells.  Five "small" plants make exactly C(5,2) = 10
    # pairs infeasible on every seed, so the skip path runs and the amount
    # of work does not depend on the seed.
    "synth-wide": {
        "layout": "direct",
        "plants": 16,
        "small_plants": 5,
        "raw_warehouses": 8,
        "product_warehouses": 8,
        "stores": 16,
        "raws": 2,
        "products": 3,
    },
    # Floyd on ~530 nodes dominates, then the 10P2 raw-warehouse assignment;
    # the product search is 3 warehouse pairs per situation.
    "synth-transit": {
        "layout": "grid",
        "grid": 22,
        "plants": 24,
        "small_plants": 0,
        "raw_warehouses": 10,
        "product_warehouses": 3,
        "stores": 6,
        "raws": 2,
        "products": 3,
    },
    "solvers": {
        "transport": [40, 40],
        "unbalanced": [24, 30],
        "loading_capacity": 1500,
        "loading_items": 10,
        "plan_products": 60,
        "plan_resources": 20,
    },
}

# Toy sizes for the smoke check; they exercise every code path in seconds.
TOY_PRESETS: dict[str, dict] = {
    "synth-wide": dict(PRESETS["synth-wide"], plants=5, small_plants=2,
                       raw_warehouses=3, product_warehouses=3, stores=3),
    "synth-transit": dict(PRESETS["synth-transit"], grid=4, plants=4,
                          raw_warehouses=3, product_warehouses=2, stores=3),
    "solvers": dict(PRESETS["solvers"], transport=[5, 5], unbalanced=[3, 4],
                    loading_capacity=60, loading_items=4, plan_products=6,
                    plan_resources=3),
}

# Loading item weights: a fixed multiset, shuffled per seed, so the DP's
# work (which grows with sum(capacity / weight)) is the same on every seed.
LOADING_WEIGHTS = (23, 31, 37, 41, 47, 53, 59, 67, 73, 83, 89, 97)


def _money(rng: random.Random, lo: float, hi: float) -> float:
    return round(lo + (hi - lo) * rng.random(), 2)


def _int(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi]."""
    return lo + rng.randrange(hi - lo + 1)


def scenario(seed: int, name: str, sizes: dict) -> dict:
    """A pipeline scenario in the documented file format.

    Every plant pair in which at least one plant is not "small" is feasible
    and splits output between both plants; every pair of two small plants is
    infeasible.  No limits and no edge capacities are declared.
    """
    rng = random.Random(f"{name}:{seed}")
    raws = [f"a{i + 1}" for i in range(sizes["raws"])]
    products = [f"b{i + 1}" for i in range(sizes["products"])]
    # Unpadded numbers, so string order differs from numeric order ("r10" < "r2").
    groups = {
        "raw_warehouses": [f"r{i + 1}" for i in range(sizes["raw_warehouses"])],
        "plants": [f"p{i + 1}" for i in range(sizes["plants"])],
        "product_warehouses": [f"w{i + 1}" for i in range(sizes["product_warehouses"])],
        "stores": [f"s{i + 1}" for i in range(sizes["stores"])],
    }
    extraction = {rid: f"e{i + 1}" for i, rid in enumerate(raws)}
    # Integer coordinates and costs, so equal route costs are common and the
    # tie rules (string order of ids, store before plant, first strictly
    # cheaper pair) decide outputs that the pinned digests then hold fixed.
    step = 5
    span = step * (sizes["grid"] - 1) if sizes["layout"] == "grid" else 100
    sites = list(extraction.values()) + [x for labels in groups.values() for x in labels]
    coords = {label: (_int(rng, 0, span), _int(rng, 0, span)) for label in sites}

    nodes: list[dict] = []
    edges: list[dict] = []
    doc: dict = {"name": f"{name}-seed{seed}", "handling_rate": 0.2}

    if sizes["layout"] == "direct":
        rates = {cid: _money(rng, 0.5, 2.0) for cid in raws + products}

        def link(tail: str, head: str, carried: list[str]) -> None:
            (x1, y1), (x2, y2) = coords[tail], coords[head]
            length = math.hypot(x1 - x2, y1 - y2)
            edges.append({"from": tail, "to": head,
                          "cost": {c: 1 + round(rates[c] * length / step) for c in carried}})

        for rid, source in extraction.items():
            for rw in groups["raw_warehouses"]:
                link(source, rw, [rid])
        for rw in groups["raw_warehouses"]:
            for plant in groups["plants"]:
                link(rw, plant, raws)
        for plant in groups["plants"]:
            for pw in groups["product_warehouses"]:
                link(plant, pw, products)
        for pw in groups["product_warehouses"]:
            for store in groups["stores"]:
                link(pw, store, products)
    else:
        # Relay grid; each site hangs off its nearest grid node, both ways.
        side = sizes["grid"]
        for i in range(side):
            for j in range(side):
                nodes.append({"id": f"g{i}_{j}", "x": i * step, "y": j * step})
                for di, dj in ((1, 0), (0, 1)):
                    if i + di < side and j + dj < side:
                        a, b = f"g{i}_{j}", f"g{i + di}_{j + dj}"
                        edges += [{"from": a, "to": b}, {"from": b, "to": a}]
        for label in sites:
            x, y = coords[label]
            near = f"g{round(x / step)}_{round(y / step)}"
            edges += [{"from": label, "to": near}, {"from": near, "to": label}]
        doc["grid_costs"] = {
            c: {"horizontal": _int(rng, 1, 3), "vertical": _int(rng, 1, 3)} for c in raws + products
        }
    nodes += [{"id": label, "x": coords[label][0], "y": coords[label][1]} for label in sites]

    demand = {
        store: {prod: _int(rng, 1, 5) for prod in products} for store in groups["stores"]
    }
    totals = {prod: sum(demand[s][prod] for s in groups["stores"]) for prod in products}
    small = set(rng.sample(groups["plants"], sizes["small_plants"]))
    capacity = {}
    for plant in groups["plants"]:
        capacity[plant] = {}
        for prod in products:
            # Two small plants cannot cover demand (2 * small_hi < total); a
            # large plant covers whatever any partner leaves, and the first
            # plant of every pair stays below demand, so both plants produce.
            total = totals[prod]
            small_hi = (total - 1) // 2
            small_lo = min(math.ceil(0.3 * total), small_hi)
            if plant in small:
                capacity[plant][prod] = _int(rng, small_lo, small_hi)
            else:
                capacity[plant][prod] = _int(rng, total - small_lo, total - 1)

    exponents = {}
    for prod in products:
        shares = [_money(rng, 0.3, 0.7) for _ in raws]
        exponents[prod] = {rid: round(s / sum(shares), 2) for rid, s in zip(raws, shares)}
    doc.update({
        "nodes": nodes,
        "edges": edges,
        "commodities": [
            {"id": rid, "kind": "raw", "unit_cost": _int(rng, 1, 3),
             "purchase_price": _int(rng, 10, 25), "storage_fee": _int(rng, 10, 25)}
            for rid in raws
        ] + [{"id": prod, "kind": "product", "storage_fee": _int(rng, 15, 35)} for prod in products],
        "recipes": {prod: {rid: _int(rng, 1, 2) for rid in raws} for prod in products},
        "sites": {"extraction": extraction, **groups},
        "demand": {
            "stores": demand,
            "retail_prices": {prod: _int(rng, 80, 130) for prod in products},
        },
        "production": {
            "factors": {
                plant: {prod: _money(rng, 1.8, 2.6) for prod in products}
                for plant in groups["plants"]
            },
            "exponents": exponents,
            "capacity": capacity,
        },
    })
    return doc


def _integers_summing_to(rng: random.Random, count: int, total: int) -> list[int]:
    """``count`` positive integers with the given sum."""
    cuts = sorted(rng.sample(range(1, total), count - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _transport(rng: random.Random, m: int, n: int, balanced: bool) -> dict:
    supply = [_int(rng, 5, 50) for _ in range(m)]
    surplus = 0 if balanced else _int(rng, 1, sum(supply) // 4)
    demand = _integers_summing_to(rng, n, sum(supply) - surplus)
    costs = [[_int(rng, 1, 99) for _ in range(n)] for _ in range(m)]
    return {"supply": supply, "demand": demand, "costs": costs}


def solver_instances(seed: int, sizes: dict) -> dict[str, dict]:
    """Transportation (balanced and unbalanced), loading and planning instances.

    The seed changes every number but not the solvers' work, so a run's time
    does not depend on which seed it drew: the instances' structure comes
    from one fixed draw, and per seed the transportation costs get row and
    column offsets (reduced costs, hence the pivots, are unchanged), the
    planning profits one positive scale (Bland's rule takes the same pivots),
    and the loading items a shuffle of a fixed weight multiset with fresh
    profits (the DP's work depends only on the weights).
    """
    base = random.Random("solvers")
    rng = random.Random(f"solvers:{seed}")
    m, n = sizes["transport"]
    transport = _transport(base, m, n, True)
    rows = [_int(rng, 0, 20) for _ in range(m)]
    cols = [_int(rng, 0, 20) for _ in range(n)]
    transport["costs"] = [
        [c + rows[i] + cols[j] for j, c in enumerate(line)] for i, line in enumerate(transport["costs"])
    ]
    um, un = sizes["unbalanced"]
    unbalanced = _transport(base, um, un, False)
    # Column offsets only: the zero-cost fictitious column takes no row offset.
    cols = [_int(rng, 0, 20) for _ in range(un)]
    unbalanced["costs"] = [[c + cols[j] for j, c in enumerate(line)] for line in unbalanced["costs"]]

    k, r = sizes["plan_products"], sizes["plan_resources"]
    upper = [_int(base, 5, 20) for _ in range(k)]
    use = [[_money(base, 0.0, 3.0) for _ in range(r)] for _ in range(k)]
    lower = [_int(base, 0, 2) if base.random() < 0.25 else 0 for _ in range(k)]
    limits = [
        round(sum(lo * row[j] for lo, row in zip(lower, use))
              + 0.3 * sum(hi * row[j] for hi, row in zip(upper, use)), 2)
        for j in range(r)
    ]
    profit_scale = _money(rng, 0.5, 2.0)
    weights = list(LOADING_WEIGHTS[: sizes["loading_items"]])
    rng.shuffle(weights)
    return {
        "transport": transport,
        "unbalanced": unbalanced,
        "loading": {
            "capacity": sizes["loading_capacity"],
            "items": [
                {"name": f"item{i + 1}", "weight": w, "profit": round(_money(rng, 1.0, 2.0) * w, 2)}
                for i, w in enumerate(weights)
            ],
        },
        "plan": {
            "lower": lower,
            "upper": upper,
            "resource_use": use,
            "resource_limits": limits,
            "profit": [round(profit_scale * _int(base, 1, 50), 2) for _ in range(k)],
        },
    }


def dumps(doc: dict) -> str:
    """The canonical file text for a generated input."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_inputs(workload: str, seed: int, out: Path, sizes: dict | None = None) -> dict[str, Path]:
    """Write one workload's inputs under ``out``; returns name -> path."""
    sizes = PRESETS[workload] if sizes is None else sizes
    out.mkdir(parents=True, exist_ok=True)
    if workload == "solvers":
        docs = solver_instances(seed, sizes)
    else:
        docs = {"scenario": scenario(seed, workload, sizes)}
    paths = {}
    for key, doc in docs.items():
        paths[key] = out / f"{workload}-{key}.json"
        paths[key].write_text(dumps(doc), encoding="utf-8")
    (out / "inputs.json").write_text(
        dumps({"workload": workload, "seed": seed, "sizes": sizes}), encoding="utf-8"
    )
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PRESETS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write_inputs(args.workload, args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
