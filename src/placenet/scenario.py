"""Problem instances: commodities, sites, fees, recipes, demand, and loading.

A scenario is a single JSON document (see docs/formats.md).  String node ids
are mapped to dense integer indices at load time; everything downstream works
with the dense indices and the scenario keeps the label mapping for reporting.
Scenarios are immutable after load.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ScenarioError
from .network import Edge, Network, Node, build_network, shortest_paths

DEFAULT_PLANT_CAPACITY = 10.0
DEFAULT_HANDLING_RATE = 0.2

RAW = "raw"
PRODUCT = "product"


@dataclass(frozen=True)
class Commodity:
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


@dataclass(frozen=True)
class Sites:
    """Where things may be placed.  All values are node labels."""

    extraction: dict[str, str]
    raw_warehouses: tuple[str, ...]
    plants: tuple[str, ...]
    product_warehouses: tuple[str, ...]
    stores: tuple[str, ...]


@dataclass(frozen=True)
class ProductionParams:
    """Cobb-Douglas factors/exponents, per-plant capacities, output splits.

    ``splits`` optionally pins, per unordered plant pair, exactly how many
    units of each product each plant produces; pairs without an entry fall
    back to the fill-first-plant-to-capacity rule.
    """

    factors: dict[str, dict[str, float]]
    exponents: dict[str, dict[str, float]]
    capacity: dict[str, dict[str, float]]
    splits: dict[frozenset[str], dict[str, dict[str, int]]] = field(default_factory=dict)

    def capacity_for(self, plant: str, product: str) -> float:
        return self.capacity.get(plant, {}).get(product, DEFAULT_PLANT_CAPACITY)


class Scenario:
    """A fully validated problem instance with site-indexed route costs."""

    def __init__(
        self,
        *,
        name: str,
        node_labels: list[str],
        network: Network,
        commodities: dict[str, Commodity],
        recipes: dict[str, dict[str, float]],
        sites: Sites,
        demand: dict[str, dict[str, int]],
        retail_prices: dict[str, float],
        production: ProductionParams,
        handling_rate: float,
        notes: tuple[str, ...],
        digest: str,
        source: dict[str, Any],
    ):
        self.name = name
        self.node_labels = node_labels
        self.node_index = {label: i for i, label in enumerate(node_labels)}
        self.network = network
        self.commodities = commodities
        self.raw_ids = [c.id for c in commodities.values() if c.kind == RAW]
        self.product_ids = [c.id for c in commodities.values() if c.kind == PRODUCT]
        self.recipes = recipes
        self.sites = sites
        self.demand = demand
        self.retail_prices = retail_prices
        self.production = production
        self.handling_rate = handling_rate
        self.notes = notes
        self.digest = digest
        # private deep copy so later mutation of the caller's dict cannot leak in
        self._source = json.loads(json.dumps(source))
        # Route costs by site position; inf where there is no route.
        # raw_costs[raw][rw, plant] = D[extraction, rw] + D[rw, plant]
        # ship_costs[product][plant, pw, store] = D[plant, pw] + D[pw, store]
        # Only the rows of the legs' sources are computed, in sorted commodity
        # order so that the first bad edge cost reported does not depend on kind.
        raw_legs = (sites.raw_warehouses, sites.plants)
        ship_legs = (sites.plants, sites.product_warehouses, sites.stores)
        legs = {rid: ((sites.extraction[rid],), *raw_legs) for rid in self.raw_ids}
        legs |= {product: ship_legs for product in self.product_ids}
        costs = {commodity: self._legs(commodity, *legs[commodity]) for commodity in sorted(legs)}
        self.raw_costs = {rid: costs[rid][0] for rid in self.raw_ids}
        self.ship_costs = {product: costs[product] for product in self.product_ids}

    def _legs(self, commodity: str, *groups: tuple[str, ...]) -> np.ndarray:
        """D[a, b] + D[b, c] over three label groups, shape (a, b, c)."""
        a, b, c = ([self.node_index[label] for label in group] for group in groups)
        rows = shortest_paths(self.network, commodity, a + b)
        return rows[: len(a), b][:, :, None] + rows[len(a) :, c][None, :, :]

    def check_carried(self, commodity: str) -> None:
        """Raise ScenarioError when no edge carries the commodity."""
        if commodity not in self.network.commodities:
            raise ScenarioError(f"no edge carries commodity {commodity!r}")

    def to_dict(self) -> dict[str, Any]:
        """Canonical dict in the documented file format (round-trips)."""
        return json.loads(json.dumps(self._source))

    @staticmethod
    def from_dict(data: dict[str, Any], *, digest: str | None = None) -> "Scenario":
        return _scenario_from_dict(data, digest=digest)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ScenarioError with the offending field or entity named; a scenario
    that loads cleanly satisfies every structural invariant the pipeline
    relies on.
    """
    path = Path(path)
    raw_bytes = path.read_bytes()
    try:
        data = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    digest = hashlib.sha256(raw_bytes).hexdigest()
    try:
        return _scenario_from_dict(data, digest=digest)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _expect(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind`` (dict for a JSON object, list for a JSON
    list), else a ScenarioError naming the field."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
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


def _number(value: Any, what: str, kind: type = float) -> Any:
    """A finite ``kind`` (an int must be integral), or a ScenarioError naming
    the field."""
    try:
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


def _scenario_from_dict(data: dict[str, Any], *, digest: str | None = None) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    name = str(data.get("name", "scenario"))

    node_specs = _items(_require(data, "nodes", "scenario"), "nodes")
    if not node_specs:
        raise ScenarioError("nodes: list must be nonempty")
    node_labels: list[str] = []
    nodes: list[Node] = []
    for i, spec in enumerate(node_specs):
        label = str(_require(spec, "id", f"nodes[{i}]"))
        if label in node_labels:
            raise ScenarioError(f"nodes: duplicate id {label!r}")
        node_labels.append(label)
        x, y = (_number(spec.get(axis, 0.0), f"nodes[{i}].{axis}") for axis in "xy")
        nodes.append(Node(i, x, y))
    index = {label: i for i, label in enumerate(node_labels)}

    def node_ref(label: Any, context: str) -> str:
        label = str(label)
        if label not in index:
            raise ScenarioError(f"{context}: unknown node id {label!r}")
        return label

    commodities: dict[str, Commodity] = {}
    for i, spec in enumerate(_items(_require(data, "commodities", "scenario"), "commodities")):
        cid = str(_require(spec, "id", f"commodities[{i}]"))
        kind = str(_require(spec, "kind", f"commodity {cid}"))
        if kind not in (RAW, PRODUCT):
            raise ScenarioError(f"commodity {cid}: kind must be 'raw' or 'product'")
        if cid in commodities:
            raise ScenarioError(f"commodities: duplicate id {cid!r}")
        commodities[cid] = Commodity(
            id=cid,
            kind=kind,
            unit_cost=_nonneg(spec.get("unit_cost", 0.0), f"commodity {cid}: unit_cost"),
            purchase_price=_nonneg(
                spec.get("purchase_price", 0.0), f"commodity {cid}: purchase_price"
            ),
            storage_fee=_nonneg(spec.get("storage_fee", 0.0), f"commodity {cid}: storage_fee"),
        )
    raw_ids = [c.id for c in commodities.values() if c.kind == RAW]
    product_ids = [c.id for c in commodities.values() if c.kind == PRODUCT]

    def commodity_ref(cid: Any, context: str, kind: str | None = None) -> str:
        cid = str(cid)
        if cid not in commodities:
            raise ScenarioError(f"{context}: unknown commodity {cid!r}")
        if kind and commodities[cid].kind != kind:
            raise ScenarioError(f"{context}: commodity {cid!r} is not a {kind}")
        return cid

    grid_costs = None
    if "grid_costs" in data and data["grid_costs"] is not None:
        grid_costs = {}
        for cid, spec in _entries(data["grid_costs"], "grid_costs"):
            commodity_ref(cid, "grid_costs")
            grid_costs[cid] = (
                _nonneg(_require(spec, "horizontal", f"grid_costs[{cid}]"), "horizontal cost"),
                _nonneg(_require(spec, "vertical", f"grid_costs[{cid}]"), "vertical cost"),
            )

    edges: list[Edge] = []
    for i, spec in enumerate(_items(_require(data, "edges", "scenario"), "edges")):
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
        edges.append(Edge(index[tail], index[head], cost))
    network = build_network(nodes, edges, grid_costs)

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
        recipes[product] = recipe
    for product in product_ids:
        if product not in recipes:
            raise ScenarioError(f"recipes: product {product!r} has no recipe")

    sites_spec = _require(data, "sites", "scenario")
    extraction = {
        commodity_ref(rid, "sites.extraction", RAW): node_ref(label, f"sites.extraction[{rid}]")
        for rid, label in _entries(_require(sites_spec, "extraction", "sites"), "sites.extraction")
    }
    for rid in raw_ids:
        if rid not in extraction:
            raise ScenarioError(f"sites.extraction: raw {rid!r} has no extraction node")

    def site_list(key: str) -> tuple[str, ...]:
        what = f"sites.{key}"
        labels = tuple(node_ref(x, what) for x in _items(_require(sites_spec, key, "sites"), what))
        if not labels:
            raise ScenarioError(f"sites.{key}: list must be nonempty")
        if len(set(labels)) != len(labels):
            raise ScenarioError(f"sites.{key}: duplicate node ids")
        return labels

    sites = Sites(
        extraction=extraction,
        raw_warehouses=site_list("raw_warehouses"),
        plants=site_list("plants"),
        product_warehouses=site_list("product_warehouses"),
        stores=site_list("stores"),
    )
    groups = [
        set(sites.extraction.values()),
        set(sites.raw_warehouses),
        set(sites.plants),
        set(sites.product_warehouses),
        set(sites.stores),
    ]
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            overlap = groups[i] & groups[j]
            if overlap:
                raise ScenarioError(f"sites: node(s) {sorted(overlap)} appear in two site groups")

    demand_spec = _require(data, "demand", "scenario")
    store_demand: dict[str, dict[str, int]] = {}
    for store, entries in _entries(_require(demand_spec, "stores", "demand"), "demand.stores"):
        node_ref(store, "demand.stores")
        if store not in sites.stores:
            raise ScenarioError(f"demand.stores: {store!r} is not a store site")
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
    for product in product_ids:
        if product not in retail_prices:
            raise ScenarioError(f"demand.retail_prices: missing product {product!r}")

    production_spec = _require(data, "production", "scenario")
    factors: dict[str, dict[str, float]] = {}
    factor_spec = _require(production_spec, "factors", "production")
    for plant, entries in _entries(factor_spec, "production.factors"):
        node_ref(plant, "production.factors")
        factors[plant] = {}
        for product, j_factor in _entries(entries, f"production.factors[{plant}]"):
            commodity_ref(product, f"production factor at {plant}", PRODUCT)
            j_factor = _number(j_factor, f"production factor at {plant} for {product}")
            if not j_factor > 0:
                raise ScenarioError(f"production factor at {plant} for {product} must be > 0")
            factors[plant][product] = j_factor
    for plant in sites.plants:
        for product in product_ids:
            if factors.get(plant, {}).get(product) is None:
                raise ScenarioError(
                    f"production.factors: missing factor for plant {plant!r}, product {product!r}"
                )
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
    for product in product_ids:
        if product not in exponents:
            raise ScenarioError(f"production.exponents: missing product {product!r}")

    capacity: dict[str, dict[str, float]] = {}
    for plant, entries in _entries(production_spec.get("capacity", {}), "production.capacity"):
        node_ref(plant, "production.capacity")
        capacity[plant] = {
            commodity_ref(product, f"capacity at {plant}", PRODUCT): _nonneg(
                value, f"capacity at {plant} for {product}"
            )
            for product, value in _entries(entries, f"production.capacity[{plant}]")
        }

    splits: dict[frozenset[str], dict[str, dict[str, int]]] = {}
    for i, spec in enumerate(_items(production_spec.get("splits", []), "production.splits")):
        what = f"production.splits[{i}]"
        pair = tuple(
            node_ref(p, what) for p in _items(_require(spec, "plants", what), f"{what}.plants")
        )
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ScenarioError(f"{what}: plants must be two distinct nodes")
        for plant in pair:
            if plant not in sites.plants:
                raise ScenarioError(f"{what}: {plant!r} is not a plant candidate")
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
        splits[frozenset(pair)] = output

    production = ProductionParams(
        factors=factors, exponents=exponents, capacity=capacity, splits=splits
    )

    limits = _expect(data.get("limits") or {}, dict, "limits")
    if limits:
        raise _unenforced(f"limits.{next(iter(limits))}")

    handling_rate = _nonneg(data.get("handling_rate", DEFAULT_HANDLING_RATE), "handling_rate")
    notes = tuple(str(n) for n in _items(data.get("notes", []), "notes"))

    if digest is None:
        digest = hashlib.sha256(
            json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    return Scenario(
        name=name,
        node_labels=node_labels,
        network=network,
        commodities=commodities,
        recipes=recipes,
        sites=sites,
        demand=store_demand,
        retail_prices=retail_prices,
        production=production,
        handling_rate=handling_rate,
        notes=notes,
        digest=digest,
        source=data,
    )

