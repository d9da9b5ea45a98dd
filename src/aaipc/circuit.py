"""Probabilistic circuit structures: parsing, validation, generation,
structural analytics (topological order, tree mass, minimum value, sampling)
and the compiled, levelized layout that both determinism checks, `sample` and
the queries of `inference` run on.  The layout is walked two ways: going up,
one level at a time (the determinism checks here, the MAR and MAP passes in
`inference`), and going down in `_Compiled.descend`,
which turns one child choice per sum into an assignment for both MAP and
sampling.  This module knows no number format.

A circuit is a rooted DAG of sum, product and indicator units over discrete
variables.  Sum children carry non-negative weights that sum to one; products
multiply children with disjoint scopes; indicators test one variable value.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

import numpy as np

#: joint state spaces at or below this size are checked exhaustively
EXHAUSTIVE_STATE_LIMIT = 1 << 20

#: the exhaustive determinism check holds one bit per (table row of the
#: compiled layout, state) cell, packed in uint64 words, for at most this many
#: cells at a time, in chunks of a multiple of 64 states
CHECK_CELLS = 1 << 26

WEIGHT_SUM_TOL = 1e-12


class CircuitFormatError(ValueError):
    """Structural or serialization problem, reported with the offending unit."""


@dataclass(frozen=True)
class Variable:
    id: int
    cardinality: int


@dataclass(frozen=True)
class SumUnit:
    id: int
    children: tuple[int, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class ProductUnit:
    id: int
    children: tuple[int, ...]


@dataclass(frozen=True)
class IndicatorUnit:
    id: int
    var: int
    value: int


Unit = Union[SumUnit, ProductUnit, IndicatorUnit]

#: an edge, (unit id, child position k), names the multiply that brings child
#: k in: a sum's weight times child k, or a product's fold step k >= 1, so
#: each multiply sits on one edge
Edge = tuple[int, int]


@dataclass(frozen=True)
class StructureReport:
    smooth: bool
    decomposable: bool
    deterministic: bool
    violations: tuple[tuple[int, str], ...]
    determinism_check: str  # "exhaustive" or "syntactic"


class Circuit:
    """Validated circuit with precomputed scopes and topological order."""

    def __init__(self, variables: Sequence[Variable], units: Sequence[Unit], root: int):
        self.variables = tuple(sorted(variables, key=lambda v: v.id))
        self.units: dict[int, Unit] = {}
        for u in units:
            if u.id in self.units:
                raise CircuitFormatError(f"duplicate unit id {u.id}")
            self.units[u.id] = u
        self.root = root
        self._check_variables()
        self._check_units()
        self.order = self._topological_order()
        self.scopes: dict[int, frozenset[int]] = _fold(
            self, lambda u: frozenset((u.var,)), lambda kids: frozenset().union(*kids),
            lambda u, kids: frozenset().union(*kids))
        self._check_reachable()

    # -- construction checks ------------------------------------------------

    def _check_variables(self) -> None:
        ids = [v.id for v in self.variables]
        if ids != list(range(len(ids))):
            raise CircuitFormatError(f"variable ids must be dense 0..d-1, got {ids}")
        for v in self.variables:
            if v.cardinality < 2:
                raise CircuitFormatError(f"variable {v.id} has cardinality {v.cardinality}")

    def _check_units(self) -> None:
        if self.root not in self.units:
            raise CircuitFormatError(f"root id {self.root} is not a unit")
        n_vars = len(self.variables)
        for u in self.units.values():
            if isinstance(u, IndicatorUnit):
                if not 0 <= u.var < n_vars:
                    raise CircuitFormatError(f"unit {u.id}: unknown variable {u.var}")
                if not 0 <= u.value < self.variables[u.var].cardinality:
                    raise CircuitFormatError(f"unit {u.id}: value {u.value} out of range")
                continue
            for c in u.children:
                if c not in self.units:
                    raise CircuitFormatError(f"unit {u.id}: dangling child id {c}")
            if isinstance(u, ProductUnit) and len(u.children) < 2:
                raise CircuitFormatError(f"product {u.id} needs at least 2 children")
            if isinstance(u, SumUnit):
                if len(u.children) < 1:
                    raise CircuitFormatError(f"sum {u.id} has no children")
                if len(u.children) != len(u.weights):
                    raise CircuitFormatError(f"sum {u.id}: children/weights length mismatch")
                if any(w < 0 for w in u.weights):
                    raise CircuitFormatError(f"sum {u.id} has a negative weight")
                if abs(sum(u.weights) - 1.0) > WEIGHT_SUM_TOL:
                    raise CircuitFormatError(
                        f"sum {u.id} weights sum to {sum(u.weights)!r}, expected 1")

    def _topological_order(self) -> tuple[int, ...]:
        # Kahn's algorithm, smallest ready id first for a stable order
        import heapq

        indegree = {uid: 0 for uid in self.units}
        parents: dict[int, list[int]] = {uid: [] for uid in self.units}
        for u in self.units.values():
            for c in getattr(u, "children", ()):  # indicators have no children
                indegree[u.id] += 1
                parents[c].append(u.id)
        ready = [uid for uid, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            uid = heapq.heappop(ready)
            order.append(uid)
            for p in parents[uid]:
                indegree[p] -= 1
                if indegree[p] == 0:
                    heapq.heappush(ready, p)
        if len(order) != len(self.units):
            stuck = sorted(set(self.units) - set(order))
            raise CircuitFormatError(f"cycle detected involving units {stuck}")
        return tuple(order)

    def _check_reachable(self) -> None:
        seen = {self.root}
        stack = [self.root]
        while stack:
            u = self.units[stack.pop()]
            for c in getattr(u, "children", ()):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        unreachable = sorted(set(self.units) - seen)
        if unreachable:
            raise CircuitFormatError(f"units not reachable from root: {unreachable}")

    # -- convenience ---------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def state_space_size(self) -> int:
        size = 1
        for v in self.variables:
            size *= v.cardinality
        return size

    def sum_units(self) -> list[SumUnit]:
        """The sum units in id order, whatever order they were listed in."""
        return [u for _, u in sorted(self.units.items()) if isinstance(u, SumUnit)]

    def weight_edges(self) -> list[Edge]:
        """All sum edges in (unit id, child position) order."""
        return [(u.id, i) for u in self.sum_units() for i in range(len(u.children))]


def _fold(c: Circuit, indicator: Callable[[IndicatorUnit], Any],
          product: Callable[[Iterator], Any],
          sum_: Callable[[SumUnit, Iterator], Any]) -> dict[int, Any]:
    """One value per unit, children before parents: each product and sum
    rule receives an iterator over its children's values in `children`
    order."""
    value: dict[int, Any] = {}
    get = value.__getitem__
    for uid in c.order:
        u = c.units[uid]
        if isinstance(u, IndicatorUnit):
            value[uid] = indicator(u)
        elif isinstance(u, ProductUnit):
            value[uid] = product(map(get, u.children))
        else:
            value[uid] = sum_(u, map(get, u.children))
    return value


# The two rules below serve floats and float64 arrays alike: the first
# operation makes a fresh array, the later ones update it in place.

def _product(kids: Iterator) -> Any:
    acc = 1.0
    for v in kids:
        acc *= v
    return acc


def _weighted_sum(u: SumUnit, kids: Iterator) -> Any:
    acc = 0.0
    for w, v in zip(u.weights, kids):
        acc += w * v
    return acc


# ---------------------------------------------------------------------------
# compiled, levelized layout
# ---------------------------------------------------------------------------

#: one level: products at table rows p0:p1 fold the rows in pch's columns
#: (padded with the row of one), sums at rows s0:s1 add the rows in sch's
#: columns (padded with the row of zero), both in `children` order; child k
#: of unit i has slot pslot + k * n_p + i or sslot + k * n_s + i
_Level = namedtuple("_Level", "p0 p1 pch pslot s0 s1 sch sslot")


class _Compiled:
    """Per-level index arrays of one circuit.  Table rows: one per indicator
    test (variable, value), each level's products and sums, then a row of one
    and a row of zero.  Slots: every fold step and sum edge, padding included,
    level by level; slot_sites names the real ones, slot_index places them.
    It is walked up a level at a time (`validate`'s determinism checks, the
    passes of `inference`) and down by `descend`.  Sums are numbered level
    by level in sum_index, the row order of the choice tables `descend`
    takes."""

    def __init__(self, c: Circuit):
        level: dict[int, int] = {}
        for uid in c.order:
            level[uid] = 1 + max(map(level.get, getattr(c.units[uid], "children", ())), default=-1)
        by_level: list[list[Unit]] = [[] for _ in range(max(level.values()) + 1)]
        for uid in c.order:
            by_level[level[uid]].append(c.units[uid])
        tests: dict[tuple[int, int], int] = {}  # indicators of one test share a row
        row = {u.id: tests.setdefault((u.var, u.value), len(tests)) for u in by_level[0]}
        self.ind_var, self.ind_val = np.array(list(tests), dtype=np.int64).reshape(-1, 2).T
        free = len(tests)
        self.one_row = free + len(c.units) - len(by_level[0])
        self.zero_row = self.one_row + 1
        self.levels: list[_Level] = []
        self.slot_sites: list[Edge] = []
        self.slot_index: list[int] = []
        self.weights: list[np.ndarray] = []
        self.n_slots = 0
        for units in by_level[1:]:
            prod = [u for u in units if isinstance(u, ProductUnit)]
            summ = [u for u in units if isinstance(u, SumUnit)]
            p0, s0, free = free, free + len(prod), free + len(units)
            row.update((u.id, p0 + i) for i, u in enumerate(prod + summ))
            self.levels.append(_Level(p0, s0, *self._group(prod, row, self.one_row),
                                      s0, free, *self._group(summ, row, self.zero_row)))
        self.root, self.n_table, self.n_vars = row[c.root], self.zero_row + 1, c.n_vars
        self.slot_index = np.array(self.slot_index, dtype=np.int64)
        self.weights = np.concatenate([np.zeros(0)] + self.weights)
        self.sites = sorted(self.slot_sites)
        sums = [u for units in by_level for u in units if isinstance(u, SumUnit)]
        self.sum_index = {u.id: i for i, u in enumerate(sums)}
        self.sum_arity = np.array([len(u.children) for u in sums], dtype=np.int64)

    def _group(self, units: list, row: dict[int, int], pad: int):
        """One level's products or sums: their children's rows in `children`
        order, one column per unit, and the first of their slots.  Edge
        (u, k) multiplies child k in; a product's fold starts at child 0, so
        its slots for child 0 are padding."""
        kids = [u.children for u in units]
        ch = np.full((max(map(len, kids), default=1), len(units)), pad, dtype=np.int64)
        w = np.zeros(ch.shape)
        first = self.n_slots
        for i, (u, ks) in enumerate(zip(units, kids)):
            n, skip = len(ks), int(isinstance(u, ProductUnit))
            ch[:n, i] = [row[k] for k in ks]
            w[:n, i] = getattr(u, "weights", 0.0)
            self.slot_sites += [(u.id, k) for k in range(skip, n)]
            self.slot_index += [first + k * len(units) + i for k in range(skip, n)]
        self.weights.append(w.ravel())
        self.n_slots += ch.size
        return ch, first

    def descend(self, choices: np.ndarray, n: int) -> np.ndarray:
        """The assignments that n rows of child choices select, one row of
        `choices` per sum in sum_index order and one column per row: top
        down, one level at a time, a selected sum selects its chosen child
        and a selected product all its children.  A variable no selected
        indicator tests is -1; one that two test takes the value of
        the one listed later in ind_var."""
        sel = np.zeros((self.n_table, n), dtype=bool)
        sel[self.root] = True
        end = len(choices)
        for lev in reversed(self.levels):
            if lev.s1 > lev.s0:
                end -= lev.s1 - lev.s0
                i, b = np.nonzero(sel[lev.s0:lev.s1])
                sel[lev.sch[choices[end + i, b], i], b] = True
            if lev.p1 > lev.p0:
                i, b = np.nonzero(sel[lev.p0:lev.p1])
                sel[lev.pch[:, i], b] = True
        i, b = np.nonzero(sel[:len(self.ind_var)])
        assignment = np.full((n, self.n_vars), -1, dtype=np.int64)
        assignment[b, self.ind_var[i]] = self.ind_val[i]
        return assignment


def _compile(c: Circuit) -> _Compiled:
    """The circuit's compiled layout, built on first use and kept on it."""
    if "_compiled" not in c.__dict__:
        c._compiled = _Compiled(c)
    return c._compiled


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def parse_circuit(text: str) -> Circuit:
    """Build a circuit from its JSON description.

    Weights arrive as decimal strings (or JSON numbers) and are held as
    64-bit floats; any quantization to narrower formats happens at inference
    time.  Ids, variables, values and cardinalities must be JSON integers,
    children and weights JSON lists, and weights finite.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"invalid JSON: {exc}") from exc
    try:
        variables = [Variable(_json_int(v["id"], "variable", v["id"], "id"),
                              _json_int(v["cardinality"], "variable", v["id"], "cardinality"))
                     for v in doc["variables"]]
        units: list[Unit] = []
        for spec in doc["units"]:
            uid, kind = _json_int(spec["id"], "unit", spec["id"], "id"), spec["type"]
            if kind == "sum":
                units.append(SumUnit(uid, _json_ints(spec["children"], uid),
                                     _json_weights(spec["weights"], uid)))
            elif kind == "product":
                units.append(ProductUnit(uid, _json_ints(spec["children"], uid)))
            elif kind == "indicator":
                units.append(IndicatorUnit(uid, _json_int(spec["var"], "unit", uid, "var"),
                                           _json_int(spec["value"], "unit", uid, "value")))
            else:
                raise CircuitFormatError(f"unit {uid}: unknown type {kind!r}")
        root = _json_int(doc["root"], "circuit", "document", "root")
    except (KeyError, TypeError) as exc:
        raise CircuitFormatError(f"malformed circuit document: {exc}") from exc
    return Circuit(variables, units, root)


# The parse checks build their messages only on failure.

def _json_int(x: Any, owner: str, oid: Any, field: str) -> int:
    if type(x) is not int:  # int() would silently cast a bool, float or str
        raise CircuitFormatError(f"{owner} {oid!r} {field} must be a JSON integer, got {x!r}")
    return x


def _json_ints(x: Any, uid: int) -> tuple[int, ...]:
    if type(x) is not list or any(type(v) is not int for v in x):
        raise CircuitFormatError(f"unit {uid} children must be a JSON list of integers, "
                                 f"got {x!r}")
    return tuple(x)


def _json_weights(x: Any, uid: int) -> tuple[float, ...]:
    if type(x) is not list:
        raise CircuitFormatError(f"unit {uid} weights must be a JSON list, got {x!r}")
    weights = []
    for w in x:
        try:
            f = float(w) if type(w) in (str, int, float) else math.nan
        except (ValueError, OverflowError):
            f = math.nan
        if not math.isfinite(f):
            raise CircuitFormatError(f"unit {uid}: weight {w!r} is not a finite number")
        weights.append(f)
    return tuple(weights)


def circuit_to_json(c: Circuit) -> str:
    units = []
    for uid in sorted(c.units):
        u = c.units[uid]
        if isinstance(u, SumUnit):
            units.append({"id": uid, "type": "sum", "children": list(u.children),
                          "weights": [repr(w) for w in u.weights]})
        elif isinstance(u, ProductUnit):
            units.append({"id": uid, "type": "product", "children": list(u.children)})
        else:
            units.append({"id": uid, "type": "indicator", "var": u.var, "value": u.value})
    doc = {"variables": [{"id": v.id, "cardinality": v.cardinality} for v in c.variables],
           "units": units, "root": c.root}
    return json.dumps(doc, indent=1)


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

def validate(c: Circuit) -> StructureReport:
    """Check smoothness, decomposability and determinism.

    Determinism is decided exhaustively, on one bit per state, when the
    joint state space fits the enumeration budget; otherwise a syntactic
    sufficient condition, on one bool per (variable, value), is used and
    failures are flagged as unverified rather than proven violations.  Both
    checks are one walk up the compiled layout, a level at a time.
    """
    violations: list[tuple[int, str]] = []
    smooth = decomposable = True
    for uid in c.order:
        u = c.units[uid]
        if isinstance(u, SumUnit):
            scopes = {c.scopes[ch] for ch in u.children}
            if len(scopes) > 1:
                smooth = False
                violations.append((uid, "sum children have differing scopes"))
        elif isinstance(u, ProductUnit):
            seen: set[int] = set()
            for ch in u.children:
                if c.scopes[ch] & seen:
                    decomposable = False
                    violations.append((uid, "product children share variables"))
                    break
                seen |= c.scopes[ch]

    exhaustive = c.state_space_size() <= EXHAUSTIVE_STATE_LIMIT
    bad = _determinism_exhaustive(c) if exhaustive else _determinism_syntactic(c)
    violations.extend(bad)
    return StructureReport(smooth, decomposable, not bad, tuple(violations),
                           "exhaustive" if exhaustive else "syntactic")


def _determinism_exhaustive(c: Circuit) -> list[tuple[int, str]]:
    """Supports on one bit per state: a sum is flagged where two children
    are positive together, and only positive-weight ones add to its own."""
    comp = _compile(c)
    live = [comp.weights[lev.sslot:lev.sslot + lev.sch.size].reshape(lev.sch.shape) > 0
            for lev in comp.levels]
    return [(uid, "multiple children positive on a complete state")
            for uid in _overlapping_sums(comp, _state_chunks(c, comp), live, [0])]


def _state_chunks(c: Circuit, comp: _Compiled) -> Iterator[np.ndarray]:
    """One table of CHECK_CELLS bits or fewer per chunk of states, 64 per word:
    indicator rows hold one bit per state, the row of one all ones."""
    size, cards = c.state_space_size(), [v.cardinality for v in c.variables]
    strides = np.cumprod([1] + cards[:-1]).tolist()  # the check needs no state order
    step = max(64, CHECK_CELLS // comp.n_table // 64 * 64)
    for start in range(0, size, step):
        states = np.arange(start, min(start + step, size), dtype=np.int32)
        val = np.zeros((comp.n_table, -(-len(states) // 64)), dtype=np.uint64)
        val[comp.one_row] = ~np.uint64(0)
        for var, (stride, card) in enumerate(zip(strides, cards)):
            digit = states // stride % card
            for i in np.flatnonzero(comp.ind_var == var).tolist():
                bits = np.packbits(digit == comp.ind_val[i], bitorder="little")
                val[i].view(np.uint8)[:len(bits)] = bits
        yield val


def _determinism_syntactic(c: Circuit) -> list[tuple[int, str]]:
    """Sufficient condition, on one bool per (variable, value) a unit admits
    (an indicator all but the other values of its variable): each pair of
    sum children admits disjoint values of some variable."""
    comp, cards = _compile(c), [v.cardinality for v in c.variables]
    starts = np.cumsum([0] + cards[:-1])
    col_var = np.repeat(np.arange(c.n_vars), cards)
    val = np.zeros((comp.n_table, len(col_var)), dtype=bool)
    val[:len(comp.ind_var)] = ((col_var != comp.ind_var[:, np.newaxis]) | (
        np.arange(len(col_var)) == (starts[comp.ind_var] + comp.ind_val)[:, np.newaxis]))
    val[comp.one_row] = True
    live = [np.ones(lev.sch.shape, dtype=bool) for lev in comp.levels]
    return [(uid, "determinism unverified for a child pair")
            for uid in _overlapping_sums(comp, [val], live, starts)]


def _overlapping_sums(comp: _Compiled, tables: Iterable[np.ndarray], live: list[np.ndarray],
                      blocks: Sequence[int]) -> list[int]:
    """The sums, in id order, two of whose children overlap in every block
    of columns (starting at `blocks`) of some table, one level at a time:
    products AND their children's rows, and sums OR the rows of the
    children that `live` marks, one mask per level shaped as its `sch`."""
    bad = np.zeros(len(comp.sum_index), dtype=bool)
    for val in tables:
        j = 0
        for lev, live_kids in zip(comp.levels, live):
            val[lev.p0:lev.p1] = np.bitwise_and.reduce(val[lev.pch], axis=0)
            kids = val[lev.sch]
            for a, b in itertools.combinations(kids, 2):
                bad[j:j + lev.s1 - lev.s0] |= np.logical_or.reduceat(
                    a & b, blocks, axis=1).all(axis=1)
            j += lev.s1 - lev.s0
            kids[~live_kids] = 0
            val[lev.s0:lev.s1] = np.bitwise_or.reduce(kids, axis=0)
    return sorted(np.array(list(comp.sum_index), dtype=np.int64)[bad].tolist())


# ---------------------------------------------------------------------------
# dense evaluation helpers (64-bit reference arithmetic)
# ---------------------------------------------------------------------------

def enumerate_states(c: Circuit) -> np.ndarray:
    """All complete assignments as an (N, d) int array, lexicographic order."""
    size = c.state_space_size()
    if size > EXHAUSTIVE_STATE_LIMIT:
        raise ValueError(f"state space {size} exceeds enumeration budget "
                         f"{EXHAUSTIVE_STATE_LIMIT}")
    grids = np.meshgrid(*(np.arange(v.cardinality) for v in c.variables),
                        indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def _is_integer(value: Any) -> bool:
    """Whether value is an int or a numpy integer: a float would be
    truncated and a bool read as 0 or 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(name: str, value: Any) -> int:
    """value as an int, or a ValueError naming the argument."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _row_array(x: Any) -> np.ndarray:
    """x as an array, refusing booleans, which a cast to integers reads as 0
    and 1: a bool array, or a bool in a list or an object array."""
    arr = np.asarray(x)
    raw = arr if isinstance(x, np.ndarray) else np.asarray(x, dtype=object)
    if arr.dtype.kind == "b" or raw.dtype == object and any(
            isinstance(v, (bool, np.bool_)) for v in raw.flat):
        raise ValueError("rows must hold integers, not booleans")
    return arr


def _check_rows(c: Circuit, x: np.ndarray, unobserved: bool = False) -> np.ndarray:
    """x, from `_row_array`, as an int64 array of rows, one value per
    variable, each below its cardinality; negative values mean unobserved
    when that is allowed."""
    if x.ndim != 2 or x.shape[1] != c.n_vars:
        raise ValueError(f"rows have {x.shape[-1]} values, "
                         f"the circuit has {c.n_vars} variables")
    if x.dtype.kind in "iu":
        rows, bad = x.astype(np.int64, copy=False), False
    else:
        with np.errstate(invalid="ignore"):  # NaN and infinities fail the test below
            rows = x.astype(np.int64)
        bad = rows != x  # the cast reads 1.9 as 1
    cards = np.array([v.cardinality for v in c.variables])
    bad = np.argwhere(bad | (rows >= cards if unobserved else (rows >= cards) | (rows < 0)))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"row {i}, column {j}: value {x[i, j]} " + (
            "is not an integer" if rows[i, j] != x[i, j]
            else f"is out of range for cardinality {cards[j]}"))
    return rows


def eval_double(c: Circuit, x: np.ndarray) -> np.ndarray:
    """Reference 64-bit probabilities for a batch of complete assignments."""
    x = _check_rows(c, np.atleast_2d(_row_array(x)))
    return _fold(c, lambda u: (x[:, u.var] == u.value).astype(np.float64),
                 _product, _weighted_sum)[c.root]


# ---------------------------------------------------------------------------
# random circuit generation
# ---------------------------------------------------------------------------

def generate_random_tree_pc(seed: int, n_vars: int, depth: int,
                            sum_fanout: int) -> Circuit:
    """Random smooth, decomposable, tree-shaped circuit over binary variables.

    Alternates sum and product layers; every product splits its variable
    block into two random halves, so each sum mixes differently structured
    children and the result is generally not deterministic.
    """
    seed, n_vars = _integer("seed", seed), _integer("n_vars", n_vars)
    depth, sum_fanout = _integer("depth", depth), _integer("sum_fanout", sum_fanout)
    if n_vars < 2:
        raise ValueError("need at least 2 variables")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if sum_fanout < 2:
        raise ValueError("sum_fanout must be >= 2")
    if 1 << (depth - 1) > n_vars:
        raise ValueError(f"depth {depth} too large for {n_vars} variables")
    rng = np.random.default_rng(seed)
    builder = _Builder()

    def univariate(var: int) -> int:
        w = rng.dirichlet(np.ones(2))
        kids = [builder.indicator(var, 0), builder.indicator(var, 1)]
        return builder.sum(kids, w)

    def build(vars_block: list[int], levels: int) -> int:
        if len(vars_block) == 1:
            return univariate(vars_block[0])
        if levels <= 0:
            return builder.product([univariate(v) for v in vars_block])
        kids = []
        for _ in range(sum_fanout):
            block = rng.permutation(vars_block).tolist()
            half = len(block) // 2
            kids.append(builder.product([build(block[:half], levels - 1),
                                         build(block[half:], levels - 1)]))
        return builder.sum(kids, rng.dirichlet(np.ones(sum_fanout)))

    root = build(list(range(n_vars)), depth)
    return Circuit([Variable(i, 2) for i in range(n_vars)], builder.units, root)


def generate_random_det_pc(seed: int, n_vars: int) -> Circuit:
    """Random deterministic circuit: a probabilistic decision tree where each
    sum splits on one variable's indicators, giving disjoint child supports."""
    seed, n_vars = _integer("seed", seed), _integer("n_vars", n_vars)
    if n_vars < 1:
        raise ValueError("need at least 1 variable")
    rng = np.random.default_rng(seed)
    builder = _Builder()

    def build(vars_block: list[int]) -> int:
        split = vars_block[int(rng.integers(len(vars_block)))]
        rest = [v for v in vars_block if v != split]
        w = rng.dirichlet(np.ones(2))
        kids = []
        for val in (0, 1):
            ind = builder.indicator(split, val)
            kids.append(ind if not rest else builder.product([ind, build(rest)]))
        return builder.sum(kids, w)

    root = build(list(range(n_vars)))
    return Circuit([Variable(i, 2) for i in range(n_vars)], builder.units, root)


class _Builder:
    """Accumulates units with sequential ids."""

    def __init__(self) -> None:
        self.units: list[Unit] = []

    def _next(self) -> int:
        return len(self.units)

    def indicator(self, var: int, value: int) -> int:
        self.units.append(IndicatorUnit(self._next(), var, value))
        return self.units[-1].id

    def product(self, children: list[int]) -> int:
        self.units.append(ProductUnit(self._next(), tuple(children)))
        return self.units[-1].id

    def sum(self, children: list[int], weights) -> int:
        w = np.asarray(weights, dtype=np.float64)
        w = w / w.sum()
        self.units.append(SumUnit(self._next(), tuple(children), tuple(float(x) for x in w)))
        return self.units[-1].id


# ---------------------------------------------------------------------------
# tree mass, minimum value, sampling
# ---------------------------------------------------------------------------

def edge_masses(c: Circuit) -> dict[Edge, float]:
    """Total probability mass of the induced trees through each sum edge.

    Bottom-up pass with all indicators at one gives each unit's subtree mass;
    a top-down flow pass accumulates the mass of all partial trees above a
    unit.  The edge mass is flow(sum) * weight * subtree_mass(child).
    """
    value = _fold(c, lambda u: 1.0, _product, _weighted_sum)
    flow = {uid: 0.0 for uid in c.units}
    flow[c.root] = 1.0
    for uid in reversed(c.order):
        u = c.units[uid]
        if isinstance(u, SumUnit):
            for w, ch in zip(u.weights, u.children):
                flow[ch] += flow[uid] * w
        elif isinstance(u, ProductUnit):
            for pos, ch in enumerate(u.children):
                other = 1.0
                for k, sibling in enumerate(u.children):
                    if k != pos:
                        other *= value[sibling]
                flow[ch] += flow[uid] * other

    masses: dict[Edge, float] = {}
    for u in c.sum_units():
        for i, (w, ch) in enumerate(zip(u.weights, u.children)):
            masses[(u.id, i)] = flow[u.id] * w * value[ch]
    return masses


def min_positive_value(c: Circuit) -> float:
    """Smallest probability the circuit can output on its support: replace
    sums by a min over positive weighted children, indicators by one."""
    def sum_(u: SumUnit, kids: Iterator[float]) -> float:
        terms = [w * v for w, v in zip(u.weights, kids) if w * v > 0]
        return min(terms) if terms else 0.0

    value = _fold(c, lambda u: 1.0, _product, sum_)
    if value[c.root] <= 0:
        raise ValueError("circuit has no positive output (all-zero circuit)")
    return value[c.root]


def sample(c: Circuit, seed: int, n: int) -> np.ndarray:
    """Draw n complete assignments by ancestral descent.

    The uniforms come from one seeded stream, n per sum unit, the sums
    taking theirs in reversed `c.order` (parents first): one
    `random((n_sums, n))` block, which holds the numbers that one
    `random(n)` call per sum would give.  So results are reproducible, a
    sum's draws do not depend on which rows reach it, and each sample's path
    is independent of the others.  A draw picks the first child whose
    cumulative normalized weight exceeds it (the last child where rounding
    leaves none); the choices then descend the compiled layout as MAP's do.
    """
    seed, n = _integer("seed", seed), _integer("n", n)
    if n < 0:
        raise ValueError("n must be non-negative")
    if c.scopes[c.root] != frozenset(range(c.n_vars)):
        missing = sorted(frozenset(range(c.n_vars)) - c.scopes[c.root])
        raise ValueError(f"root scope does not cover variables {missing}; "
                         "samples would leave them unassigned")
    comp = _compile(c)
    cum, draw_row = _draw_table(c, comp)
    draws = np.random.default_rng(seed).random((len(draw_row), n))[draw_row]
    choices = np.zeros(draws.shape, dtype=np.int64)
    for column in cum.T:  # the choice is how many cumulative weights are at or below the draw
        choices += column[:, np.newaxis] <= draws
    out = comp.descend(choices, n)
    unassigned = np.flatnonzero((out < 0).any(axis=0)).tolist()
    if unassigned:
        raise ValueError(f"samples left variables {unassigned} unassigned; "
                         "the circuit is not smooth")
    return out


def _draw_table(c: Circuit, comp: _Compiled) -> tuple[np.ndarray, np.ndarray]:
    """What `sample` compares its draws with, built on its first call and
    kept on the layout: one row per sum in sum_index order, its cumulative
    normalized weights but the last, padded with +inf; and, per sum, the row
    of the draw block it takes (sums draw in reversed `c.order`)."""
    if "draw_table" not in comp.__dict__:
        cum = np.full((len(comp.sum_index), comp.sum_arity.max(initial=1) - 1), np.inf)
        draw_row = np.empty(len(comp.sum_index), dtype=np.int64)
        sums = [uid for uid in reversed(c.order) if uid in comp.sum_index]
        for k, uid in enumerate(sums):
            w = np.asarray(c.units[uid].weights)
            i = comp.sum_index[uid]
            cum[i, :len(w) - 1] = np.cumsum(w / np.sum(w))[:-1]
            draw_row[i] = k
        comp.draw_table = cum, draw_row
    return comp.draw_table
