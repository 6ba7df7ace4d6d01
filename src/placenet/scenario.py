"""Problem instances: commodities, sites, fees, recipes, demand, and loading.

A scenario is a single JSON document (see docs/formats.md).  String node ids
are mapped to dense integer indices at load time; everything downstream works
with the dense indices and the scenario keeps the label mapping for reporting.
Each commodity's edges become (tails, heads, costs) arrays in edge order, and
route costs come from those.  Scenarios are immutable after load.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .errors import InfeasibleError, ScenarioError
from .network import Edges, shortest_paths, stacked_shortest_paths

DEFAULT_PLANT_CAPACITY = 10.0
DEFAULT_HANDLING_RATE = 0.2

RAW = "raw"
PRODUCT = "product"
_MONEY = ("unit_cost", "purchase_price", "storage_fee")  # a product may set only the last

_NO_EDGES: Edges = (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))


class Commodity(NamedTuple):
    """One raw material or finished product with its money parameters.

    ``unit_cost`` is the extraction cost per raw unit; ``purchase_price`` is
    what a plant pays per raw unit it consumes; ``storage_fee`` is the
    warehousing fee per stored unit.  Products only use ``storage_fee``.
    """

    id: str
    kind: str
    unit_cost: float = 0.0
    purchase_price: float = 0.0
    storage_fee: float = 0.0


class Sites(NamedTuple):
    """Where things may be placed.  All values are node labels."""

    extraction: dict[str, str]
    raw_warehouses: tuple[str, ...]
    plants: tuple[str, ...]
    product_warehouses: tuple[str, ...]
    stores: tuple[str, ...]


class ProductionParams(NamedTuple):
    """Cobb-Douglas factors/exponents, per-plant capacities, output splits.

    ``splits`` optionally pins, per unordered plant pair, exactly how many
    units of each product each plant produces; pairs without an entry fall
    back to the fill-first-plant-to-capacity rule.
    """

    factors: dict[str, dict[str, float]]
    exponents: dict[str, dict[str, float]]
    capacity: dict[str, dict[str, float]]
    splits: dict[frozenset[str], dict[str, dict[str, int]]]

    def capacity_for(self, plant: str, product: str) -> float:
        return self.capacity.get(plant, {}).get(product, DEFAULT_PLANT_CAPACITY)


@dataclass(eq=False)  # identity equality: generated == would compare numpy arrays
class Scenario:
    """A fully validated problem instance with site-indexed route costs.

    ``edges`` maps each commodity that some edge carries to its edge arrays.
    """

    name: str
    node_labels: list[str]
    edges: dict[str, Edges]
    commodities: dict[str, Commodity]
    recipes: dict[str, dict[str, float]]
    sites: Sites
    demand: dict[str, dict[str, int]]
    retail_prices: dict[str, float]
    production: ProductionParams
    handling_rate: float
    notes: tuple[str, ...]
    digest: str

    def __post_init__(self):
        self.node_index = {label: i for i, label in enumerate(self.node_labels)}
        self.raw_ids = [c.id for c in self.commodities.values() if c.kind == RAW]
        self.product_ids = [c.id for c in self.commodities.values() if c.kind == PRODUCT]
        self.demand_rows = {  # each product's units (Python ints) by store position
            p: [self.demand[s].get(p, 0) for s in self.sites.stores] for p in self.product_ids
        }
        # Route costs by site position; inf where there is no route.
        # raw_costs[raw][rw, plant] = D[extraction, rw] + D[rw, plant]
        # ship_costs[product][plant, pw, store] = D[plant, pw] + D[pw, store]
        # One kernel run computes only the rows of the legs' sources, in one
        # block per distinct edge-cost vector: commodities that share one share rows.
        index = self.node_index
        rw, plants, pw, stores = ([index[label] for label in group] for group in self.sites[1:])
        legs = {r: ([index[self.sites.extraction[r]]], rw, plants) for r in self.raw_ids}
        legs.update((p, (plants, pw, stores)) for p in self.product_ids)
        # Each distinct edge-cost vector (as bytes): its edges and {source node: row}.
        blocks: dict[tuple[bytes, ...], tuple[Edges, dict[int, int]]] = {}
        keys = {}
        for cid, (a, b, _) in legs.items():
            edges = self.edges.get(cid, _NO_EDGES)
            keys[cid] = key = tuple(array.tobytes() for array in edges)
            sources = blocks.setdefault(key, (edges, {}))[1]
            for node in a + b:
                sources.setdefault(node, len(sources))
        rows = dict(zip(blocks, stacked_shortest_paths(len(self.node_labels), blocks.values())))
        costs = {}
        for cid, (a, b, c) in legs.items():
            D, sources = rows[keys[cid]], blocks[keys[cid]][1]
            with np.errstate(over="ignore"):  # a leg cost past the float range is inf
                first = D[np.ix_([sources[node] for node in a], b)]
                costs[cid] = first[:, :, None] + D[np.ix_([sources[node] for node in b], c)][None]
        self.raw_costs = {rid: costs[rid][0] for rid in self.raw_ids}
        self.ship_costs = {product: costs[product] for product in self.product_ids}

    def route_error(self, commodity: str, *labels: str) -> ScenarioError | InfeasibleError:
        """The error an infinite route cost through ``labels`` stands for: no edge carries
        the commodity, a cost past the float range (each hop has a route), or no route."""
        if commodity not in self.edges:
            return ScenarioError(f"no edge carries commodity {commodity!r}")
        tails, heads, costs = self.edges[commodity]
        nodes = [self.node_index[label] for label in labels]
        hops = shortest_paths(len(self.node_labels), (tails, heads, np.zeros_like(costs)), nodes[:-1])
        route = " -> ".join(labels)
        if not hops[range(len(hops)), nodes[1:]].any():  # 0 where a hop has a route
            return ScenarioError(f"the {commodity} route cost {route} overflows")
        return InfeasibleError(f"no {commodity} route {route}")

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Scenario":
        return _scenario_from_dict(data)


def read_document(path: Path) -> tuple[Any, str]:
    """A JSON file's parsed document and the sha256 of its bytes.  Bytes that are
    not text in the detected encoding, and a lone surrogate, are refused."""
    try:
        raw = path.read_bytes()
        data = json.loads(raw)  # lets a lone surrogate through, raw or escaped
        text = raw.decode(json.detect_encoding(raw))  # strict: refuses a raw one
        if re.search(r"\\u[dD][89a-fA-F]", text):  # an escape: the dump refuses a lone one
            json.dumps(data, ensure_ascii=False).encode()
        return data, hashlib.sha256(raw).hexdigest()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeError as exc:
        raise ScenarioError(f"{path}: not valid {exc.encoding} text: {exc.reason}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ScenarioError with the offending field or entity named; a scenario
    that loads cleanly satisfies every structural invariant the pipeline
    relies on.
    """
    path = Path(path)
    data, digest = read_document(path)
    try:
        return _scenario_from_dict(data, digest=digest)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _expect(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind`` (dict for a JSON object, list for a JSON
    list, str for a JSON string), else a ScenarioError naming the field."""
    if not isinstance(value, kind):
        noun = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ScenarioError(f"{what} must be {noun}, got {value!r}")
    return value


def _entries(value: Any, what: str):
    """The items of a JSON object, or a ScenarioError naming the field."""
    return _expect(value, dict, what).items()


def _items(value: Any, what: str) -> list:
    """A JSON list, or a ScenarioError naming the field."""
    return _expect(value, list, what)


def _require(data: dict[str, Any], key: str, context: str) -> Any:
    if key not in _expect(data, dict, context):
        raise ScenarioError(f"{context}: missing required key {key!r}")
    return data[key]


def _require_each(table: dict, keys, message: str, **fields: Any) -> None:
    """Refuse the first of ``keys`` missing from ``table``: ``message`` is a
    constant template, and node ids go in as ``fields``."""
    for key in keys:
        if key not in table:
            raise ScenarioError(message.format(key=key, **fields))


def _number(value: Any, what: str, kind: type = float) -> Any:
    """A finite ``kind`` (an int must be integral), or a ScenarioError naming
    the field.  A JSON boolean or string is not a number, though float() reads "1_5" or true."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{what} must be a finite number, got {value!r}")
    if kind is int and not number.is_integer():
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return kind(number)


def _nonneg(value: float, what: str) -> float:
    value = _number(value, what)
    if value < 0:
        raise ScenarioError(f"{what} must be a finite number >= 0, got {value}")
    return value


def _unenforced(what: str) -> ScenarioError:
    """The error for a non-empty field that placenet does not enforce, so that
    a declared limit is refused rather than silently ignored."""
    return ScenarioError(
        f"{what}: placenet does not enforce this field; remove it or leave it empty"
    )


def _read_edges(specs: list, index: dict[str, int], commodities: dict, needs_cost: bool):
    """The (ends, carried) of an edge list read a column at a time: each edge's
    (tail, head) indices, and each carried commodity's edge rows and costs in
    edge order.  None where the per-edge loop in _scenario_from_dict may have
    an error to name; that loop then reads the list again.  ``needs_cost``:
    every edge holds a nonempty cost map, else none holds one."""
    try:
        ends = [(index[e["from"]], index[e["to"]]) for e in specs]
        maps = [e.get("cost", {}) for e in specs]
        if any(e.get("capacity") for e in specs):
            return None
        if any(type(m) is not dict or bool(m) != needs_cost for m in maps):
            return None
        cids = [cid for m in maps for cid in m]
        values = [v for m in maps for v in m.values()]
        if not commodities.keys() >= set(cids) or not {type(v) for v in values} <= {int, float}:
            return None  # a boolean or string is not a number, though float() reads it
        costs = np.array(values, dtype=float)
    except (KeyError, TypeError, AttributeError, OverflowError):
        return None
    if not (np.isfinite(costs) & (costs >= 0)).all():
        return None
    rows, ids = np.repeat(np.arange(len(maps)), [len(m) for m in maps]), np.array(cids)
    return ends, {cid: (rows[ids == cid], costs[ids == cid]) for cid in dict.fromkeys(cids)}


def _scenario_from_dict(data: dict[str, Any], *, digest: str | None = None) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    name = _expect(data.get("name", "scenario"), str, "name")

    node_specs = _items(_require(data, "nodes", "scenario"), "nodes")
    if not node_specs:
        raise ScenarioError("nodes: list must be nonempty")
    index: dict[str, int] = {}
    coords: list[tuple[float, float]] = []
    for i, spec in enumerate(node_specs):
        label = _expect(_require(spec, "id", f"nodes[{i}]"), str, f"nodes[{i}].id")
        if label in index:
            raise ScenarioError(f"nodes: duplicate id {label!r}")
        index[label] = i
        coords.append(tuple(_number(spec.get(axis, 0.0), f"nodes[{i}].{axis}") for axis in "xy"))
    node_labels = list(index)

    def node_ref(label: Any, context: str, group=None, role: str = "a plant candidate") -> str:
        if _expect(label, str, context) not in index:
            raise ScenarioError(f"{context}: unknown node id {label!r}")
        if group is not None and label not in group:
            raise ScenarioError(f"{context}: {label!r} is not {role}")
        return label

    commodities: dict[str, Commodity] = {}
    for i, spec in enumerate(_items(_require(data, "commodities", "scenario"), "commodities")):
        cid = _expect(_require(spec, "id", f"commodities[{i}]"), str, f"commodities[{i}].id")
        kind = str(_require(spec, "kind", f"commodity {cid}"))
        if kind not in (RAW, PRODUCT):
            raise ScenarioError(f"commodity {cid}: kind must be 'raw' or 'product'")
        if cid in commodities:
            raise ScenarioError(f"commodities: duplicate id {cid!r}")
        money = {key: _nonneg(spec.get(key, 0.0), f"commodity {cid}: {key}") for key in _MONEY}
        for key in _MONEY[:2]:
            if kind == PRODUCT and money[key]:
                raise ScenarioError(f"commodity {cid}: {key} has no effect on a product")
        commodities[cid] = Commodity(cid, kind, **money)
    raw_ids = [c.id for c in commodities.values() if c.kind == RAW]
    product_ids = [c.id for c in commodities.values() if c.kind == PRODUCT]

    def commodity_ref(cid: Any, context: str, kind: str | None = None) -> str:
        if cid not in commodities:  # cid is an object key, so a string
            raise ScenarioError(f"{context}: unknown commodity {cid!r}")
        if kind and commodities[cid].kind != kind:
            raise ScenarioError(f"{context}: commodity {cid!r} is not a {kind}")
        return cid

    grid_costs = None
    if "grid_costs" in data and data["grid_costs"] is not None:
        grid_costs = {}
        for cid, spec in _entries(data["grid_costs"], "grid_costs"):
            commodity_ref(cid, "grid_costs")
            grid_costs[cid] = tuple(
                _nonneg(_require(spec, key, f"grid_costs[{cid}]"), f"grid_costs[{cid}].{key}")
                for key in ("horizontal", "vertical")
            )

    edge_specs = _items(_require(data, "edges", "scenario"), "edges")
    read = _read_edges(edge_specs, index, commodities, needs_cost=grid_costs is None)
    ends, carried = read or ([], {})  # carried: commodity -> edges[i], costs
    for i, spec in enumerate(edge_specs if read is None else ()):  # names the first fault
        tail = node_ref(_require(spec, "from", f"edges[{i}]"), f"edges[{i}].from")
        head = node_ref(_require(spec, "to", f"edges[{i}]"), f"edges[{i}].to")
        cost = {
            commodity_ref(cid, f"edges[{i}].cost"): _nonneg(v, f"edges[{i}] cost for {cid}")
            for cid, v in _entries(spec.get("cost", {}), f"edges[{i}].cost")
        }
        if spec.get("capacity"):
            raise _unenforced(f"edges[{i}].capacity")
        if grid_costs is None and not cost:
            raise ScenarioError(f"edges[{i}]: needs a cost map (no grid_costs given)")
        if grid_costs is not None and cost:
            raise ScenarioError(f"edges[{i}].cost has no effect when grid_costs is given")
        for cid, value in cost.items():
            rows, values = carried.setdefault(cid, ([], []))
            rows.append(i)
            values.append(value)
        ends.append((index[tail], index[head]))
    tails, heads = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    loops = np.flatnonzero(tails == heads)
    if loops.size:
        i = loops[0]
        raise ScenarioError(f"edges[{i}]: self-loop at node {node_labels[tails[i]]!r}")
    if grid_costs is None:
        edges = {
            cid: (tails[rows], heads[rows], np.asarray(values, dtype=float))
            for cid, (rows, values) in carried.items()
        }
    else:
        x, y = np.array(coords).T
        # The cost of covering each edge's displacement along grid directions
        # (none without edges); one past the float range is inf or NaN, and is
        # refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            dx, dy = abs(x[tails] - x[heads]), abs(y[tails] - y[heads])
            edges = {c: (tails, heads, h * dx + v * dy) for c, (h, v) in grid_costs.items() if ends}

    recipes: dict[str, dict[str, float]] = {}
    for product, entries in _entries(_require(data, "recipes", "scenario"), "recipes"):
        commodity_ref(product, "recipes", PRODUCT)
        recipe = {
            commodity_ref(rid, f"recipe for {product}", RAW): _nonneg(
                units, f"recipe for {product}: {rid}"
            )
            for rid, units in _entries(entries, f"recipe for {product}")
        }
        if not any(v > 0 for v in recipe.values()):
            raise ScenarioError(f"recipe for {product}: needs at least one positive entry")
        for rid, units in recipe.items():
            if units == 0:
                raise ScenarioError(f"recipe for {product}: {rid} must be > 0 units; "
                                    "leave out a raw the product does not use")
        recipes[product] = recipe
    _require_each(recipes, product_ids, "recipes: product {key!r} has no recipe")

    sites_spec = _require(data, "sites", "scenario")
    extraction = {
        commodity_ref(rid, "sites.extraction", RAW): node_ref(label, f"sites.extraction[{rid}]")
        for rid, label in _entries(_require(sites_spec, "extraction", "sites"), "sites.extraction")
    }
    _require_each(extraction, raw_ids, "sites.extraction: raw {key!r} has no extraction node")

    def site_list(key: str) -> tuple[str, ...]:
        what = f"sites.{key}"
        entries = enumerate(_items(_require(sites_spec, key, "sites"), what))
        labels = tuple(node_ref(_expect(x, str, f"{what}[{k}]"), what) for k, x in entries)
        if not labels:
            raise ScenarioError(f"sites.{key}: list must be nonempty")
        if len(set(labels)) != len(labels):
            raise ScenarioError(f"sites.{key}: duplicate node ids")
        return labels

    keys = ("raw_warehouses", "plants", "product_warehouses", "stores")
    sites = Sites(extraction=extraction, **{key: site_list(key) for key in keys})
    groups = (extraction.values(), *(getattr(sites, key) for key in keys))
    for a, b in itertools.combinations(map(set, groups), 2):
        if a & b:
            raise ScenarioError(f"sites: node(s) {sorted(a & b)} appear in two site groups")

    demand_spec = _require(data, "demand", "scenario")
    store_demand: dict[str, dict[str, int]] = {}
    for store, entries in _entries(_require(demand_spec, "stores", "demand"), "demand.stores"):
        node_ref(store, "demand.stores", sites.stores, "a store site")
        per_product = {}
        for product, units in _entries(entries, f"demand for {store}"):
            commodity_ref(product, f"demand for {store}", PRODUCT)
            units = _number(units, f"demand for {store}: {product} units", int)
            if units < 0:
                raise ScenarioError(f"demand for {store}: {product} units must be >= 0")
            per_product[product] = units
        store_demand[store] = per_product
    for store in sites.stores:
        store_demand.setdefault(store, {})
    retail_prices = {
        commodity_ref(product, "demand.retail_prices", PRODUCT): _nonneg(
            price, f"retail price for {product}"
        )
        for product, price in _entries(
            _require(demand_spec, "retail_prices", "demand"), "demand.retail_prices"
        )
    }
    _require_each(retail_prices, product_ids, "demand.retail_prices: missing product {key!r}")

    production_spec = _require(data, "production", "scenario")
    factors: dict[str, dict[str, float]] = {}
    factor_spec = _require(production_spec, "factors", "production")
    for plant, entries in _entries(factor_spec, "production.factors"):
        node_ref(plant, "production.factors", sites.plants)
        factors[plant] = {}
        for product, j_factor in _entries(entries, f"production.factors[{plant}]"):
            commodity_ref(product, f"production factor at {plant}", PRODUCT)
            j_factor = _number(j_factor, f"production factor at {plant} for {product}")
            if not j_factor > 0:
                raise ScenarioError(f"production factor at {plant} for {product} must be > 0")
            factors[plant][product] = j_factor
    missing = "production.factors: missing factor for plant {plant!r}, product {key!r}"
    for plant in sites.plants:
        _require_each(factors.get(plant, {}), product_ids, missing, plant=plant)
    exponents: dict[str, dict[str, float]] = {}
    exponent_spec = _require(production_spec, "exponents", "production")
    for product, entries in _entries(exponent_spec, "production.exponents"):
        commodity_ref(product, "production.exponents", PRODUCT)
        exponents[product] = {}
        for rid, exponent in _entries(entries, f"production.exponents[{product}]"):
            commodity_ref(rid, f"exponents for {product}", RAW)
            exponent = _number(exponent, f"exponent for {product}/{rid}")
            if not exponent > 0:
                raise ScenarioError(f"exponent for {product}/{rid} must be > 0")
            exponents[product][rid] = exponent
    _require_each(exponents, product_ids, "production.exponents: missing product {key!r}")
    outside = "production.exponents[{product}]: {key!r} is not in the recipe for {product}"
    absent = "production.exponents[{product}]: missing exponent for recipe raw {key!r}"
    for product, used in exponents.items():  # exactly the raws that plant_economics spends
        _require_each(recipes[product], used, outside, product=product)
        _require_each(used, recipes[product], absent, product=product)

    capacity: dict[str, dict[str, float]] = {}
    for plant, entries in _entries(production_spec.get("capacity", {}), "production.capacity"):
        node_ref(plant, "production.capacity", sites.plants)
        capacity[plant] = {
            commodity_ref(product, f"capacity at {plant}", PRODUCT): _nonneg(
                value, f"capacity at {plant} for {product}"
            )
            for product, value in _entries(entries, f"production.capacity[{plant}]")
        }

    splits: dict[frozenset[str], dict[str, dict[str, int]]] = {}
    for i, spec in enumerate(_items(production_spec.get("splits", []), "production.splits")):
        what = f"production.splits[{i}]"
        plants = enumerate(_items(_require(spec, "plants", what), f"{what}.plants"))
        pair = tuple(node_ref(_expect(p, str, f"{what}.plants[{k}]"), what) for k, p in plants)
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ScenarioError(f"{what}: plants must be two distinct nodes")
        for plant in pair:
            node_ref(plant, what, sites.plants)
        output = {}
        output_spec = _require(spec, "output", what)
        for plant, entries in _entries(output_spec, f"{what}.output"):
            node_ref(plant, f"{what}.output")
            output[plant] = {}
            for product, units in _entries(entries, f"{what}.output[{plant}]"):
                commodity_ref(product, f"split output at {plant}", PRODUCT)
                units = _number(units, f"split output at {plant} for {product}", int)
                if units < 0:
                    raise ScenarioError(f"split output at {plant} for {product} must be >= 0")
                output[plant][product] = units
        if set(output) != set(pair):
            raise ScenarioError(f"{what}: output must cover exactly both plants")
        if frozenset(pair) in splits:
            first = list(splits).index(frozenset(pair))
            raise ScenarioError(f"{what}: plants repeat the pair of production.splits[{first}]")
        splits[frozenset(pair)] = output

    production = ProductionParams(
        factors=factors, exponents=exponents, capacity=capacity, splits=splits
    )

    limits = _expect(data.get("limits") or {}, dict, "limits")
    if limits:
        raise _unenforced(f"limits.{next(iter(limits))}")

    handling_rate = _nonneg(data.get("handling_rate", DEFAULT_HANDLING_RATE), "handling_rate")
    notes = _items(data.get("notes", []), "notes")
    notes = tuple(_expect(note, str, f"notes[{k}]") for k, note in enumerate(notes))

    for cid in sorted(edges):  # only a grid cost can fail here, so i is also the edge index
        tails, heads, costs = edges[cid]
        for i in np.flatnonzero(~(np.isfinite(costs) & (costs >= 0)))[:1].tolist():
            ends = f"{node_labels[tails[i]]} -> {node_labels[heads[i]]}"
            raise ScenarioError(f"edges[{i}] ({ends}) cost for {cid} must be finite and >= 0")

    if digest is None:
        digest = hashlib.sha256(
            json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    return Scenario(
        name=name,
        node_labels=node_labels,
        edges=edges,
        commodities=commodities,
        recipes=recipes,
        sites=sites,
        demand=store_demand,
        retail_prices=retail_prices,
        production=production,
        handling_rate=handling_rate,
        notes=notes,
        digest=digest,
    )

