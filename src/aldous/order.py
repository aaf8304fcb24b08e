"""The order engine: which irreducibles dominate which, with evidence.

An ordered pair (sigma, tau) is *proved* when sigma is at or above tau for
every weight matrix (smaller lowest eigenvalue everywhere), *refuted* when
some witness graph gives sigma a strictly larger lowest eigenvalue, and
*unknown* otherwise. Proved entries only ever come from the seeded
citation tags; no amount of failed searching promotes a pair.

Every lambda_1 is evaluated exactly on nested-star graphs, by the dense
eigensolver otherwise (`_extremes`): one graph at a time through the cached
`lambda_extremes`, a few shapes on one graph through `_lambda1` (the path of
`check_pair` and of every witness re-check), a batch known up front through
`_many`, and a scan's candidate stream block by block through
`_lambda1_blocks`.

Refutation rule (`_clears`, the one place it is written): witnesses
evaluated in exact rational arithmetic (nested-star graphs, including plain
stars and complete graphs) need margin > 0, which is what makes them
rigorous even when the margin is astronomically small, as with the
fast-decaying lexicographic separator weights. Numeric witnesses must clear
max(10 * tol, NOISE_FACTOR * eps * dim * 2 * wt) with tol = 1e-9: the
second term is the eigensolver's backward error on a dim x dim operator
whose norm is at most 2 * wt, so rescaling a graph never turns rounding
noise into a refutation. `refutes` decides one pair; `_refutations`, the
kernel of the scan and of seeding, every pair of a scope at once.

`RelationLedger` keeps its decisions on p x p arrays over partitions_of(n),
the index grid the kernel, seeding's rule layers and the scan's mask of open
pairs use: they write whole masks of cells at once, `close_transitively` and
`export_dot` (the Hasse diagram) read the proved mask through one Warshall
closure, `_closure`, and `to_json` walks the arrays row by row. Per-pair
`RelationEntry` objects are built only on demand, by `entry` and `entries`.
`recheck_ledger` decides a ledger's refutations again from their stored
witnesses, one evaluation per distinct witness, and also checks each
stored margin and exact flag; `recheck_witness` is its one-entry case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

from .graphs import (
    WeightedGraph,
    graph_family,
    matching_graph,
    quasi_complete_graph,
    quasi_complete_weights,
    random_graph,
)
from .partitions import (
    Partition,
    conjugate,
    dominance_table,
    in_row_class,
    num_standard_tableaux,
    parse_partition,
    partitions_of,
)
from .spectral import (
    irrep_spectra,
    nested_star_extremes,
    nested_star_lambda1_scaled,
    remark_weights,
    spectrum,
)
from .symrep import (
    DEFAULT_DIM_CAP,
    STACK_FLOATS,
    DimensionCapExceeded,
    _derived_from,
    conjugate_operators,
    delta_matrices,
    delta_matrix,
    graphs_per_stack,
)

DEFAULT_TOL = 1e-9
EPS = float(np.finfo(float).eps)
# numeric margins must exceed this many eps * dim * ||M||_2; on the proved
# pairs at n = 4..7, eight random graphs each, weights scaled by 1..1e12,
# the measured noise margin stayed below 0.12 of that unit
NOISE_FACTOR = 16
# a stored numeric margin must match its re-evaluation to this relative
# tolerance; exact margins must match exactly
MARGIN_RTOL = 1e-6

# the most ordered pairs, p(n) (p(n) - 1), of a ledger from_json loads: hasse
# and the pair lists walk every one (an empty n = 21 ledger, 626,472 pairs,
# took hasse 4.4 s). seed_known(20), the largest ledger seeded, has 392,502
MAX_LEDGER_PAIRS = 400_000

PROVED_TAGS = ("cor:n1n", "bacher", "clr", "main", "transitive")
REFUTED_TAGS = ("ds81", "remark1", "cor:asympval", "scan")


class LedgerConflict(RuntimeError):
    """A pair asked to be both proved and refuted."""


# -- eigenvalue evaluation ----------------------------------------------------

def _extremes(shape: Partition, nested, solve):
    """(lambda_1, lambda_max, exact) of the shape on a graph: exactly from
    its nested-star weights `nested`, or from solve() when those are None."""
    if nested is not None:
        return (*nested_star_extremes(shape, nested), True)
    values = solve()
    return values[0], values[-1], False


def _many(shapes: Sequence[Partition], graphs: Sequence[WeightedGraph]) -> list:
    """lambda_extremes(shape, graph) for each (shape, graph) pair of the two
    lists, each shape's numeric graphs stacked by `irrep_spectra`: the same
    floats, one assembly and solve per stack. Not cached."""
    nested = [quasi_complete_weights(graph) for graph in graphs]
    pending: dict[Partition, list[int]] = {}
    for idx, (shape, a) in enumerate(zip(shapes, nested, strict=True)):
        if a is None:
            pending.setdefault(shape, []).append(idx)
    solved = {}
    for shape, indices in pending.items():
        solved.update(zip(indices, irrep_spectra(shape, [graphs[idx] for idx in indices])))
    return [_extremes(shape, a, lambda idx=idx: solved[idx])
            for idx, (shape, a) in enumerate(zip(shapes, nested))]


@lru_cache(maxsize=4096)
def lambda_extremes(shape: Partition, graph: WeightedGraph,
                    dim_cap: int = DEFAULT_DIM_CAP):
    """(lambda_1, lambda_max, exact) on one irreducible: exactly on a nested
    star, else by one `spectrum` call. Cached; graphs are immutable after
    construction."""
    return _extremes(shape, quasi_complete_weights(graph), lambda: spectrum(
        delta_matrix(shape, graph, dim_cap=dim_cap)))


def _lambda1(graph: WeightedGraph, weights: Optional[list], shapes: Sequence[Partition],
             dim_cap: int = DEFAULT_DIM_CAP) -> tuple[list, Optional[int]]:
    """(lam1, scale): lambda_1 of each shape on one graph as
    `_lambda1_blocks` gives it, Python ints times scale from one
    `nested_star_lambda1_scaled` walk over just these shapes if the graph
    has exact nested-star weights (`weights`, else quasi_complete_weights),
    else floats from `lambda_extremes`, scale None. A pair's margin is
    (lam1[i] - lam1[j]) / scale, the float that `_refute` stores."""
    if weights is None:
        weights = quasi_complete_weights(graph)
    if weights is None:
        return [lambda_extremes(shape, graph, dim_cap=dim_cap)[0] for shape in shapes], None
    (scale,), rows = nested_star_lambda1_scaled(shapes, [weights])
    return [row[0] for row in rows], scale


def _lambda1_blocks(candidates, report: "ScanReport", dim_cap: int):
    """(graph, witness, lam1, scale) for each (graph, witness) candidate of
    a stream, lam1 the lambda_1 of every shape of report.n over
    partitions_of(n): Python ints times `scale` on a nested star, else
    floats with scale None, NaN on a shape above dim_cap.

    The stream is read in blocks of as many graphs as the largest stack
    `graphs_per_stack` allows. A block's nested stars take one
    `nested_star_lambda1_scaled` walk together. Its numeric graphs are
    stacked `graphs_per_stack` at a time for each canonical or
    self-conjugate shape; the mate's stack is derived from the canonical
    one by `conjugate_operators`, and each slice is solved by one
    `spectrum` call. Each stack is freed before the next is assembled. The
    report counts the graphs read, the numeric evaluations and those
    skipped over dim_cap."""
    n = report.n
    parts = partitions_of(n)
    index = _partition_index(n)
    # (index, shape, mate) of each canonical or self-conjugate shape, the
    # largest first, so that its stacks go up while the least memory is
    # held: scan(10, ["random"], budget=2) peaks at 62 MB, against 64-65 MB
    # in the order of partitions_of(n)
    jobs = sorted(((i, shape, conjugate(shape)) for i, shape in enumerate(parts)
                   if _derived_from(shape) is None),
                  key=lambda job: -num_standard_tableaux(job[1]))
    candidates = iter(candidates)
    while block := list(islice(candidates, max(1, STACK_FLOATS // (n * n)))):
        report.graphs_tried += len(block)
        nested = [quasi_complete_weights(graph) for graph, _ in block]
        found = [None] * len(block)
        exact = [k for k, a in enumerate(nested) if a is not None]
        if exact:
            scales, rows = nested_star_lambda1_scaled(parts, [nested[k] for k in exact])
            for k, scale, row in zip(exact, scales, np.stack(rows, axis=1)):
                found[k] = row, scale
        numeric = [k for k, a in enumerate(nested) if a is None]
        graphs = [block[k][0] for k in numeric]
        lam1 = np.full((len(graphs), len(parts)), np.nan)
        for i, shape, mate in jobs if graphs else ():
            count = len(graphs) * (1 if mate == shape else 2)
            try:
                step = graphs_per_stack(shape, STACK_FLOATS, dim_cap)
            except DimensionCapExceeded:
                report.skipped_shapes += count
                continue
            report.numeric_evaluations += count
            for start in range(0, len(graphs), step):
                run = graphs[start:start + step]
                stack = delta_matrices(shape, run, dim_cap)
                lam1[start:start + step, i] = [spectrum(m)[0] for m in stack]
                if mate != shape:
                    stack = conjugate_operators(mate, stack, run)
                    lam1[start:start + step, index[mate]] = [spectrum(m)[0] for m in stack]
                del stack
        for k, row in zip(numeric, lam1):
            found[k] = row, None
        for (graph, witness), (row, scale) in zip(block, found):
            yield graph, witness, row, scale


def graph_witness(graph: WeightedGraph) -> dict:
    return {"kind": "graph", "n": graph.n, "edges": [list(e) for e in graph.edges()]}


def witness_graph(witness: dict, n: Optional[int] = None) -> WeightedGraph:
    """Materialize a stored witness descriptor; n, if given, is the ledger's.
    A malformed descriptor raises ValueError: an n that is not an int (equal
    to the ledger's), family params that are not a mapping, anything
    `graph_family` refuses (an unknown family, a parameter it does not
    take, a required one missing, a value its constructor refuses), or
    quasi weights that are not n - 1 nonnegative rationals."""
    return _materialize(witness, n)[0]


def _materialize(witness: dict, n: Optional[int]) -> tuple[WeightedGraph, Optional[list]]:
    """(graph, exact weights) of witness_graph: the exact weights are those a
    "quasi" descriptor stores, parsed once, and None for other kinds."""
    kind, size = witness.get("kind"), witness.get("n")
    if isinstance(size, bool) or not isinstance(size, int) or size < 0 or (
            n is not None and size != n):
        raise ValueError(f"witness n must be a nonnegative int"
                         f"{'' if n is None else f' equal to {n}'}, got {size!r}")
    if kind == "graph":
        return WeightedGraph.from_edges(size, witness.get("edges")), None
    if kind == "family":
        family, params = witness.get("family"), witness.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"family {family!r} witness params must be a mapping "
                             f"of its known keys, got {params!r}")
        return graph_family(family, size, **params), None
    if kind == "quasi":
        weights = _quasi_weights(witness.get("weights"), size)
        return quasi_complete_graph(size, weights), weights
    raise ValueError(f"unknown witness kind {kind!r}")


def _quasi_weights(weights, n: int) -> list[Fraction]:
    """A quasi witness's stored weights as Fractions: a list of n - 1
    nonnegative rationals, each an int, a finite float or a string."""
    if isinstance(weights, list) and len(weights) == n - 1:
        try:
            parsed = [Fraction(w) for w in weights
                      if not isinstance(w, bool) and isinstance(w, (int, float, str))]
        except (ValueError, ZeroDivisionError, OverflowError):
            parsed = []
        if len(parsed) == n - 1 and all(w >= 0 for w in parsed):
            return parsed
    raise ValueError(f"quasi witness weights must be a list of {n - 1} "
                     f"nonnegative rationals, got {weights!r}")


def _clears(margin, exact: bool, dim, wt: float, tol: float):
    """The refutation rule of the module docstring, on one margin or
    elementwise on an array of them with a matching array of dims."""
    if exact:
        return margin > 0
    return (margin > 10 * tol) & (margin > NOISE_FACTOR * EPS * dim * 2 * wt)


def refutes(margin, exact: bool, sigma: Partition, tau: Partition, wt: float,
            tol: float = DEFAULT_TOL) -> bool:
    """Does margin = lambda_1(sigma) - lambda_1(tau), on a graph of total
    weight wt, refute sigma >= tau? The rule of the module docstring, with
    dim the larger of the two shapes' dimensions."""
    dim = None if exact else max(num_standard_tableaux(sigma), num_standard_tableaux(tau))
    return bool(_clears(margin, exact, dim, wt, tol))


def _refutations(lam1: np.ndarray, scale: Optional[int], scope: np.ndarray,
                 proved: np.ndarray, wt: float = 0.0, dim=None,
                 tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The refutation kernel: (refuted, contradicted), the cells (i, j) of a
    p x p scope mask whose margin lam1[i] - lam1[j] passes `refutes`, split
    by the proved mask. lam1 is one witness's lambda_1 as `_lambda1_blocks`
    gives it: exact values are compared by rank, floats by the numeric rule
    with dim[i, j] the pair's dimension. A NaN refutes nothing."""
    if scale is not None:
        rank = np.unique(lam1, return_inverse=True)[1]
        separated = _clears(np.subtract.outer(rank, rank), True, dim, wt, tol)
    else:
        separated = _clears(np.subtract.outer(lam1, lam1), False, dim, wt, tol)
    separated &= scope
    return separated & ~proved, separated & proved


def _refute(ledger: "RelationLedger", cells: np.ndarray, lam1: np.ndarray,
            scale: Optional[int], tag: str, witness: dict) -> None:
    """Refute, all with one witness, each set cell (i, j) of a p x p mask of
    undecided pairs: its margin is the float lam1[i] - lam1[j], divided by
    scale when exact. The margins are taken at those cells only; this
    writes every seeded refutation, hundreds of thousands at n = 20."""
    rows, cols = np.nonzero(cells)
    margin = lam1[rows] - lam1[cols]
    ledger.code[rows, cols] = _CODES[tag]
    ledger.margin[rows, cols] = margin if scale is None else margin / scale
    ledger.exact[rows, cols] = scale is not None
    ledger.witness[rows, cols] = witness


def check_pair(sigma: Partition, tau: Partition, graph: WeightedGraph,
               tol: float = DEFAULT_TOL,
               dim_cap: int = DEFAULT_DIM_CAP) -> Optional[RelationEntry]:
    """Refute sigma above-tau if the graph separates their lowest eigenvalues
    by a margin that passes `refutes`: a refuted "scan" entry witnessed by
    the graph, else None. lambda_1 of the two shapes comes from `_lambda1`:
    on a nested star one exact walk over their subdiagrams, no lambda_max."""
    if sigma.n != tau.n or sigma.n != graph.n:
        raise ValueError("shapes and graph must share one n")
    (lam_s, lam_t), scale = _lambda1(graph, None, (sigma, tau), dim_cap)
    margin, exact = lam_s - lam_t, scale is not None
    if refutes(margin, exact, sigma, tau, graph.wt, tol):
        return RelationEntry(sigma, tau, "refuted", "scan", graph_witness(graph),
                             float(margin / scale if exact else margin), exact)
    return None


# -- the ledger ---------------------------------------------------------------

@dataclass(slots=True)
class RelationEntry:
    sigma: Partition
    tau: Partition
    status: str  # proved | refuted
    tag: Optional[str] = None
    witness: Optional[dict] = None
    margin: Optional[float] = None
    exact: bool = False


# a ledger cell's code: 0 for unknown, else 1 + the index of its tag here;
# codes up to _PROVED are proved, those above refuted
_TAGS = PROVED_TAGS + REFUTED_TAGS
_CODES = {tag: code for code, tag in enumerate(_TAGS, 1)}
_PROVED = len(PROVED_TAGS)

# to_json's records, indented as json.dumps(indent=2) nests them in "entries",
# keys in sorted order: exact, margin, sigma, status, tag, tau, witness. An
# unknown record is its row's head and its column's tail; a refuted one is
# the head of its exact flag, its margin, the middle of its row and tag, its
# column's name and the tail of its witness
_UNKNOWN_HEAD = '    {\n      "sigma": %s,\n      "status": "unknown",\n      "tau": '
_UNKNOWN_TAIL = '%s\n    }'
_PROVED_RECORD = ('    {\n      "sigma": %s,\n      "status": "proved",\n      "tag": %s,\n'
                  '      "tau": %s\n    }')
_REFUTED_HEADS = tuple('    {\n      "exact": %s,\n      "margin": ' % flag
                       for flag in ("false", "true"))
_REFUTED_MIDDLE = ',\n      "sigma": %s,\n      "status": "refuted",\n      "tag": %s,\n      "tau": '
_REFUTED_TAIL = ',\n      "witness": %s\n    }'


def _pairs_exceed(n: int, limit: int) -> bool:
    """Whether the partitions of n form more than limit ordered pairs. p(m)
    comes from Euler's pentagonal-number recurrence for m = 1, 2, ..., and
    since it grows with m the walk stops at the first m over the limit, so
    a huge n costs no more than a small one."""
    p = [1]
    for m in range(1, n + 1):
        p.append(sum((1 if k % 2 else -1) * p[m - g] for k in range(1, m + 1)
                     for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g <= m))
        if p[m] * (p[m] - 1) > limit:
            return True
    return False


def _require_ledger_size(n: int) -> None:
    """Raise ValueError if a ledger of n has over MAX_LEDGER_PAIRS pairs."""
    if _pairs_exceed(n, MAX_LEDGER_PAIRS):
        raise ValueError(f"ledger n = {n} has more than MAX_LEDGER_PAIRS = "
                         f"{MAX_LEDGER_PAIRS} ordered pairs of partitions")


def _cells(mask: np.ndarray) -> tuple[list[int], list[int]]:
    """Row and column indices of a bool matrix's set cells, row by row, as
    Python ints."""
    rows, cols = np.nonzero(mask)
    return rows.tolist(), cols.tolist()


def _closure(links: np.ndarray, free=True) -> np.ndarray:
    """Warshall's closure of a p x p bool mask, as a new mask: for each
    middle b in turn, row b is or-ed into every row a with (a, b) set, on
    the cells of `free` (a mask, or True for all)."""
    links = links.copy()
    free = np.broadcast_to(free, links.shape)
    for b in range(len(links)):
        above = links[:, b]
        links[above] |= links[b] & free[above]
    return links


@lru_cache(maxsize=None)
def _partition_index(n: int) -> dict[Partition, int]:
    """Each partition of n -> its position in partitions_of(n), in order."""
    return {part: i for i, part in enumerate(partitions_of(n))}


def _ledger_shape(text, n: int, shapes: dict, where: str) -> tuple[Partition, int]:
    """(partition, its index in partitions_of(n)) a ledger names, parsed once per name."""
    found = shapes.get(text) if isinstance(text, str) else None
    if found is None:
        try:
            shape = parse_partition(text)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if shape.n != n:
            raise ValueError(f"{where} {text!r} is not a partition of {n}")
        found = shapes[text] = shape, _partition_index(n)[shape]
    return found


def _entry(sigma: Partition, tau: Partition, code: int, witness, margin: float,
           exact: bool) -> RelationEntry:
    """The entry of a decided cell from its code and fields."""
    if code <= _PROVED:
        return RelationEntry(sigma, tau, "proved", _TAGS[code - 1])
    return RelationEntry(sigma, tau, "refuted", _TAGS[code - 1], witness, margin, exact)


class RelationLedger:
    """Decided ordered pairs of partitions of n, with provenance.

    The decisions sit on four p x p arrays over partitions_of(n), cell
    (i, j) for the pair (parts[i], parts[j]): `code` (int8, 0 for unknown,
    else 1 + the index of the pair's tag in PROVED_TAGS + REFUTED_TAGS), and
    for a refuted pair its `margin` (float64), `exact` flag (bool) and
    `witness` (object, the shared descriptor dict). The diagonal stays
    unknown: the setters and lookups refuse a pair of a shape with itself,
    or a pair not of n. `entries` is a read-only view built from the
    arrays.
    """

    def __init__(self, n: int):
        _require_ledger_size(n)
        self.n = n
        p = len(partitions_of(n))
        self.code = np.zeros((p, p), dtype=np.int8)
        self.margin = np.zeros((p, p))
        self.exact = np.zeros((p, p), dtype=bool)
        self.witness = np.full((p, p), None, dtype=object)

    def _cell(self, sigma: Partition, tau: Partition) -> tuple[int, int]:
        index = _partition_index(self.n)
        i, j = index.get(sigma), index.get(tau)
        if i is None or j is None or i == j:
            raise ValueError(f"({sigma}) >= ({tau}) is not a pair of two "
                             f"different partitions of {self.n}")
        return i, j

    @property
    def entries(self) -> MappingProxyType:
        """{(sigma, tau): RelationEntry} of every decided pair, in `pairs`
        order, built on each access; writing to it raises TypeError."""
        parts = partitions_of(self.n)
        rows, cols = np.nonzero(self.code)
        fields = (a[rows, cols].tolist() for a in (self.code, self.witness,
                                                    self.margin, self.exact))
        return MappingProxyType({
            (parts[i], parts[j]): _entry(parts[i], parts[j], *cell)
            for i, j, *cell in zip(rows.tolist(), cols.tolist(), *fields)})

    def status(self, sigma: Partition, tau: Partition) -> str:
        code = self.code[self._cell(sigma, tau)]
        return "unknown" if not code else "proved" if code <= _PROVED else "refuted"

    def entry(self, sigma: Partition, tau: Partition) -> Optional[RelationEntry]:
        i, j = self._cell(sigma, tau)
        code = int(self.code[i, j])
        if not code:
            return None
        parts = partitions_of(self.n)
        return _entry(parts[i], parts[j], code, self.witness[i, j],
                      float(self.margin[i, j]), bool(self.exact[i, j]))

    def set_proved(self, sigma: Partition, tau: Partition, tag: str) -> None:
        self._prove(sigma, tau, tag, None)

    def _prove(self, sigma, tau, tag, cell) -> None:
        if tag not in PROVED_TAGS:
            raise ValueError(f"unknown citation tag {tag!r}")
        cell = cell or self._cell(sigma, tau)  # from_json passes the cell it knows
        if self.code[cell] > _PROVED:
            raise LedgerConflict(f"({sigma}) >= ({tau}) already refuted")
        if not self.code[cell]:
            self.code[cell] = _CODES[tag]

    def set_refuted(self, sigma: Partition, tau: Partition, witness: dict,
                    margin: float, exact: bool, tag: str = "scan") -> None:
        """Refute sigma >= tau. A witness that is not a dict, a margin that
        is not a finite real or an exact that is not a bool raises
        ValueError: to_json could not write it so that from_json loads it."""
        self._refute(sigma, tau, witness, margin, exact, tag, None)

    def _refute(self, sigma, tau, witness, margin, exact, tag, cell) -> None:
        if tag not in REFUTED_TAGS:
            raise ValueError(f"unknown refutation tag {tag!r}")
        if not isinstance(witness, dict):
            raise ValueError(f"witness must be an object, got {witness!r}")
        try:
            finite = not isinstance(margin, bool) and math.isfinite(margin)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise ValueError(f"margin must be a finite real, got {margin!r}")
        if not isinstance(exact, bool):
            raise ValueError(f"exact must be a bool, got {exact!r}")
        cell = cell or self._cell(sigma, tau)
        if self.code[cell]:
            if self.code[cell] <= _PROVED:
                raise LedgerConflict(f"({sigma}) >= ({tau}) already proved")
            return
        self.code[cell] = _CODES[tag]
        self.margin[cell] = float(margin)
        self.exact[cell] = exact
        self.witness[cell] = witness

    def close_transitively(self) -> None:
        """Add proved entries implied by chaining existing proved ones.

        `_closure` of the p x p proved mask over the undecided off-diagonal
        cells: every pair (a, c) with a proved above b and c proved below b
        (a, b, c distinct) and no entry yet is proved. Refuted pairs are
        never overwritten and never link a chain; the new pairs are tagged
        "transitive" by one masked assignment.
        """
        proved, decided = self._grid()
        free = ~decided
        np.fill_diagonal(free, False)
        self.code[_closure(proved, free) & ~proved] = _CODES["transitive"]

    def _grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(proved, decided): p x p bool masks of the proved cells and of
        every decided one."""
        decided = self.code != 0
        return decided & (self.code <= _PROVED), decided

    def pairs(self):
        parts = partitions_of(self.n)
        for sigma in parts:
            for tau in parts:
                if sigma != tau:
                    yield sigma, tau

    def _pairs_in(self, cells: np.ndarray) -> list[tuple[Partition, Partition]]:
        """The pairs of a p x p mask from `_grid`, in `pairs` order; the
        diagonal is cleared in place."""
        parts = partitions_of(self.n)
        np.fill_diagonal(cells, False)
        return [(parts[i], parts[j]) for i, j in zip(*_cells(cells))]

    def unknown_pairs(self) -> list[tuple[Partition, Partition]]:
        return self._pairs_in(self.code == 0)

    def unknown_count(self) -> int:
        """len(unknown_pairs()): the off-diagonal cells less the decided
        ones, counted without listing the pairs."""
        p = len(self.code)
        return p * (p - 1) - int(np.count_nonzero(self.code))

    def proved_pairs(self) -> list[tuple[Partition, Partition]]:
        return self._pairs_in(self._grid()[0])

    def refuted_pairs(self) -> list[tuple[Partition, Partition]]:
        return self._pairs_in(self.code > _PROVED)

    def to_json(self) -> str:
        """The ledger as json.dumps({"n", "entries"}, indent=2, sort_keys=True)
        writes it, byte for byte, one record per pair in `pairs` order.

        Each record is pieced together from fixed parts of its status's
        template (keys already in sorted order), walking the arrays row by
        row. Tags, margins and witnesses are encoded once per distinct
        value: few are distinct, since the seeded witnesses are shared and
        so is each scanned graph's. A margin, always finite, is written by
        float.__repr__, as json.dumps writes it; margins are told apart by
        their bits, so 0.0 and -0.0 keep their own text. The header and
        footer go on the first and last record, so one join builds the
        text."""
        names = [json.dumps(str(part)) for part in partitions_of(self.n)]
        heads = [_UNKNOWN_HEAD % name for name in names]
        tails = [_UNKNOWN_TAIL % name for name in names]
        tags = [None, *(json.dumps(tag) for tag in _TAGS)]
        refuted = self.code > _PROVED
        bits, inverse = np.unique(self.margin[refuted].view(np.int64), return_inverse=True)
        margins = np.full(self.code.shape, None, dtype=object)
        margins[refuted] = np.array([float.__repr__(m) for m in bits.view(float).tolist()],
                                    dtype=object)[inverse]
        encoded = {}  # id -> tail of a witness's records
        witnesses = np.full(self.code.shape, None, dtype=object)
        witnesses[refuted] = [
            encoded.get(id(w)) or encoded.setdefault(id(w), _REFUTED_TAIL % json.dumps(
                w, indent=2, sort_keys=True).replace("\n", "\n      "))
            for w in self.witness[refuted].tolist()]

        records = []
        for i, codes in enumerate(self.code.tolist()):
            head, sigma = heads[i], names[i]
            middles = [_REFUTED_MIDDLE % (sigma, tag) for tag in tags]
            row = [head + tail if not code
                   else _PROVED_RECORD % (sigma, tags[code], tau) if code <= _PROVED
                   else _REFUTED_HEADS[exact] + margin + middles[code] + tau + witness
                   for code, tau, tail, margin, exact, witness in zip(
                       codes, names, tails, margins[i].tolist(),
                       self.exact[i].tolist(), witnesses[i].tolist())]
            del row[i]
            records += row
        if not records:
            return '{\n  "entries": [],\n  "n": %s\n}' % json.dumps(self.n)
        records[0] = '{\n  "entries": [\n' + records[0]
        records[-1] += '\n  ],\n  "n": %s\n}' % json.dumps(self.n)
        return ",\n".join(records)

    @classmethod
    def from_json(cls, text: str) -> "RelationLedger":
        """Load what to_json writes. A document of the wrong shape raises
        ValueError naming the first bad field: n an int >= 1 with at most
        MAX_LEDGER_PAIRS ordered pairs of partitions, entries a list
        of objects whose sigma and tau are two different partitions of n
        (to_json writes no pair of a shape with itself) and whose status
        is proved, refuted or unknown, no pair given twice whatever its
        status (to_json writes each pair once; a second record would go
        unchecked), and a refuted entry's witness an object, its margin a
        finite real and its exact (default false) a bool, checked with the
        tags by set_proved and set_refuted."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError('ledger JSON must be {"n": int, "entries": [...]}')
        n = data.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"ledger n must be an int >= 1, got {n!r}")
        _require_ledger_size(n)
        records = data.get("entries")
        if not isinstance(records, list):
            raise ValueError("ledger entries must be a list")
        ledger = cls(n)
        p = len(ledger.code)
        shapes, given = {}, bytearray(p * p)  # a flag per cell: a set cost 4x as much
        for i, record in enumerate(records):
            if not isinstance(record, dict):
                raise ValueError(f"entry {i} must be an object, got {record!r}")
            (sigma, a), (tau, b) = (_ledger_shape(record.get(key), n, shapes, f"entry {i} {key}")
                                    for key in ("sigma", "tau"))
            if a == b:
                raise ValueError(f"entry {i}: sigma and tau are the same partition")
            if given[a * p + b]:
                raise ValueError(f"entry {i}: ({sigma}) >= ({tau}) given twice")
            given[a * p + b] = 1
            status = record.get("status")
            try:
                if status == "proved":
                    ledger._prove(sigma, tau, record.get("tag"), (a, b))
                elif status == "refuted":
                    ledger._refute(sigma, tau, record.get("witness"), record.get("margin"),
                                   record.get("exact", False), record.get("tag", "scan"), (a, b))
                elif status != "unknown":
                    raise ValueError(f"status must be proved, refuted or unknown, "
                                     f"got {status!r}")
            except ValueError as exc:
                raise ValueError(f"entry {i} {exc}") from None
        return ledger


def _recheck(witness: dict, n: int, shapes: list[Partition], i: np.ndarray, j: np.ndarray,
             margins: np.ndarray, flags: np.ndarray, tol: float) -> tuple[list, list]:
    """Decide again, from one stored witness (one `_materialize`, one
    `_lambda1`), the refutations (shapes[i[k]], shapes[j[k]]) with their
    stored margins and exact flags. Returns the recomputed margins and
    (k, message) for each that fails `refutes`, or whose flag is not the
    witness's exactness, or whose margin is not the recomputed one (to
    MARGIN_RTOL if numeric). A malformed witness is one problem, at k = 0."""
    try:
        graph, weights = _materialize(witness, n)
        lam1, scale = _lambda1(graph, weights, shapes)
    except ValueError as exc:
        return [], [(0, f"({shapes[i[0]]}) >= ({shapes[j[0]]}): {exc}")]
    exact = scale is not None
    lam1 = np.array(lam1, dtype=object if exact else float)
    dims = np.array([num_standard_tableaux(shape) for shape in shapes])
    diff = lam1[i] - lam1[j]
    found = (diff / scale if exact else diff).astype(float)
    fails = ~_clears(diff, exact, np.maximum(dims[i], dims[j]), graph.wt, tol)
    moved = (found != margins if exact else np.abs(found - margins)
             > MARGIN_RTOL * np.maximum(np.abs(found), np.abs(margins)))
    found, margins = found.tolist(), margins.tolist()
    problems = []
    for k in np.flatnonzero(fails | (flags != exact) | moved).tolist():
        pair = f"({shapes[i[k]]}) >= ({shapes[j[k]]})"
        if fails[k]:
            problem = f"stored witness no longer refutes {pair}: margin {found[k]!r}"
        elif flags[k] != exact:
            problem = (f"stored exact flag {not exact} of {pair} does not match its "
                       f"{'exact' if exact else 'numeric'} witness")
        else:
            problem = f"stored margin {margins[k]!r} of {pair} is not the recomputed {found[k]!r}"
        problems.append((k, problem))
    return found, problems


def recheck_witness(entry: RelationEntry, tol: float = DEFAULT_TOL) -> float:
    """Re-evaluate one refutation from its stored witness and decide it
    again: the one-entry case of `recheck_ledger`. Returns the recomputed
    margin; raises LedgerConflict on the first problem it finds."""
    found, problems = _recheck(entry.witness, entry.sigma.n, [entry.sigma, entry.tau],
                               np.array([0]), np.array([1]), np.array([entry.margin]),
                               np.array([entry.exact]), tol)
    if problems:
        raise LedgerConflict(problems[0][1])
    return found[0]


def recheck_ledger(ledger: RelationLedger, tol: float = DEFAULT_TOL
                   ) -> list[tuple[tuple[Partition, Partition], str]]:
    """(pair, message) of each problem `recheck_witness` would raise on a
    refutation of the ledger, in `pairs` order. The refuted cells are
    grouped by witness, keyed by its sorted JSON text (a loaded ledger
    holds one dict per record), and each group is decided again by one
    `_recheck` on the shapes of its own pairs: one evaluation per distinct
    witness. A malformed witness is reported at its first pair."""
    parts = partitions_of(ledger.n)
    rows, cols = np.nonzero(ledger.code > _PROVED)
    key = json.JSONEncoder(sort_keys=True).encode  # json.dumps(sort_keys=True)
    groups: dict[str, list[int]] = {}
    for k, witness in enumerate(ledger.witness[rows, cols].tolist()):
        groups.setdefault(key(witness), []).append(k)
    problems = []
    for cells in groups.values():
        i, j = rows[cells], cols[cells]
        touched, local = np.unique(np.concatenate([i, j]), return_inverse=True)
        problems += [(cells[k], message) for k, message in _recheck(
            ledger.witness[i[0], j[0]], ledger.n, [parts[s] for s in touched.tolist()],
            local[:len(cells)], local[len(cells):], ledger.margin[i, j],
            ledger.exact[i, j], tol)[1]]
    return [((parts[rows[k]], parts[cols[k]]), message) for k, message in sorted(problems)]


# -- seeding ------------------------------------------------------------------

def hook(n: int, k: int) -> Partition:
    return Partition([n - k] + [1] * k) if k else Partition([n])


def seed_known(n: int) -> RelationLedger:
    """Ledger of everything citable without running a search.

    Proved: the top and bottom elements, the hook chain, the standard
    representation below the top, and the row-class/column-class pairs at
    every k with n >= 4k^2 + 4k, closed transitively. Refuted, all exactly:
    dominance-comparable pairs through the complete graph (ds81), the other
    lexicographically ordered pairs through the fast-decaying nested-star
    weights (remark1), and the two-column against one-column hook family
    through the full star (cor:asympval), all from one exact walk. An n
    whose ledger has over MAX_LEDGER_PAIRS pairs raises ValueError.

    Pairs are handled by their indices (i, j) into partitions_of(n), which
    is in descending lexicographic order: parts[i] is lexicographically
    below parts[j] exactly when i > j. Each proved rule is one p x p bool
    layer, and the first rule that proves a pair tags it. Each refuting
    rule is one call of the scan's kernel `_refutations` on its witness's
    lambda_1 vector and its scope; a scope pair left unrefuted (no positive
    margin, or a proved pair) raises LedgerConflict before the rule makes
    any entry.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    ledger = RelationLedger(n)
    parts = partitions_of(n)
    index = _partition_index(n)
    p = len(parts)
    # rules[r, i, j]: rule PROVED_TAGS[r] proves parts[i] above parts[j];
    # top = parts[0], the standard [n-1, 1] = parts[1], bottom = parts[-1]
    rules = np.zeros((4, p, p), dtype=bool)
    rules[0, 0, 1:] = rules[0, :-1, -1] = True
    hooks = [index[hook(n, k)] for k in range(n)]
    rules[1][np.ix_(hooks, hooks)] = np.triu(np.ones((n, n), dtype=bool), 1)
    rules[2, 1, 2:] = True
    first = np.array([part[0] for part in parts])
    length = np.array([len(part) for part in parts])
    k = 1
    while n >= 4 * k * k + 4 * k:
        # the row class has first row >= n - k, the column class first
        # column; no partition is in both, which needs n <= 2k + 1
        rules[3] |= np.outer(first >= n - k, length >= n - k)
        k += 1
    ledger.code[...] = np.where(rules.any(axis=0), rules.argmax(axis=0) + 1, 0)
    ledger.close_transitively()

    # every lexicographically ascending pair (i > j) is refuted through the
    # complete graph (all-ones weights) if dominance orders it, else the
    # separator, and the two-column hook family through the full star (its
    # nested weights: a_n = 1); the three lambda_1 vectors come from one walk
    weightings = [[1] * (n - 1), remark_weights(n), [0] * (n - 2) + [1]]
    scales, rows = nested_star_lambda1_scaled(parts, weightings)
    complete, remark, full = (np.array([row[w] for row in rows], dtype=object) for w in range(3))
    ascending = np.tri(p, k=-1, dtype=bool)
    by_complete = dominance_table(n).T  # [i, j]: parts[j] dominates parts[i]
    refuting = [("ds81", {"kind": "family", "family": "complete", "n": n}, complete, scales[0],
                 ascending & by_complete),
                ("remark1", {"kind": "quasi", "n": n, "weights": [str(w) for w in weightings[1]]},
                 remark, scales[1], ascending & ~by_complete)]
    if n >= 4:
        star = {"kind": "family", "family": "star", "n": n, "params": {"k": n}}
        pair = index[Partition([2, 2] + [1] * (n - 4))], index[Partition([2] + [1] * (n - 2))]
        scope = np.zeros((p, p), dtype=bool)
        scope[pair] = True
        refuting.append(("cor:asympval", star, full, scales[2], scope))
    proved = ledger._grid()[0]
    for tag, witness, lam1, scale, scope in refuting:
        refuted, contradicted = _refutations(lam1, scale, scope, proved)
        bad = scope & ~refuted
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise LedgerConflict(f"({parts[i]}) >= ({parts[j]}) already proved"
                                 if contradicted[i, j] else
                                 f"{tag} witness fails on {parts[i]} vs {parts[j]}")
        _refute(ledger, refuted, lam1, scale, tag, witness)
    return ledger


# -- scanning -----------------------------------------------------------------

SCAN_FAMILIES = ("stars", "cliques", "cycles", "paths", "matchings", "quasi", "random")


# structured scan family -> (a GRAPH_FAMILIES name, the parameter dicts the
# scan sweeps it over at n)
_STRUCTURED_FAMILIES = {
    "stars": ("star", lambda n: [{"k": k} for k in range(2, n + 1)]),
    "cliques": ("clique", lambda n: [{"k": k} for k in range(3, n + 1)]),
    "cycles": ("cycle", lambda n: [{}] if n >= 3 else []),
    "paths": ("path", lambda n: [{}]),
    "matchings": ("matching", lambda n: [{"m": m} for m in range(1, n // 2 + 1)]),
}


def _family_graphs(name: str, n: int, budget: int, seed: int):
    """Deterministic (graph, witness) candidates, structured families first.

    Random graphs come with witness None; they are stored as edge lists
    only if they refute something.
    """
    if name in _STRUCTURED_FAMILIES:
        family, params_at = _STRUCTURED_FAMILIES[name]
        for params in params_at(n):
            witness = {"kind": "family", "family": family, "n": n}
            if params:
                witness["params"] = params
            yield witness_graph(witness), witness
    elif name == "quasi":
        rng = np.random.default_rng(seed)
        for _ in range(min(budget, 25)):
            a = [int(x) for x in rng.integers(0, 4, size=n - 1)]
            if not any(a):
                a[0] = 1
            witness = {"kind": "quasi", "n": n, "weights": [str(x) for x in a]}
            yield witness_graph(witness), witness
    else:  # "random", as scan checks
        for i in range(budget):
            yield random_graph(n, seed + i), None


@dataclass
class ScanReport:
    n: int
    graphs_tried: int = 0
    refutations_found: int = 0
    # (shape, graph) evaluations dropped because the shape's dimension is
    # above dim_cap; pairs with such a shape stay undecided by that graph
    skipped_shapes: int = 0
    # (shape, graph) evaluations solved numerically, one eigensolve each
    numeric_evaluations: int = 0
    # over every refuted entry of the returned ledger, seeded or scanned
    refutations_exact: int = 0
    refutations_numeric: int = 0
    min_numeric_margin: Optional[float] = None
    contradictions: list = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.contradictions


def scan(n: int, families: Sequence[str] = SCAN_FAMILIES, budget: int = 100,
         tol: float = DEFAULT_TOL, seed: int = 0,
         dim_cap: int = DEFAULT_DIM_CAP):
    """Search family and random graphs for refutations of undecided pairs.

    Family names are checked first: an unknown or repeated one raises
    ValueError before anything is seeded. Starts from the seeded ledger.
    The pairs not yet refuted are a p x p mask over partitions_of(n).
    Graph by graph, `_lambda1_blocks` gives the lambda_1 vector of every
    shape and the kernel `_refutations` decides the open pairs all at
    once; the pairs a graph refutes leave the mask. Every shape stays in
    play: the seeded top is proved above every other shape, and proved
    pairs stay in the mask to be audited. A margin on a proved pair is a
    contradiction and lands in the report instead of the ledger.
    Deterministic for a fixed seed.
    """
    families = tuple(families)
    for k, name in enumerate(families):
        if name not in SCAN_FAMILIES or name in families[:k]:
            raise ValueError(f"{'repeated' if name in SCAN_FAMILIES else 'unknown'} "
                             f"scan family {name!r}")
    ledger = seed_known(n)
    report = ScanReport(n)
    parts = partitions_of(n)
    proved, decided = ledger._grid()
    todo = proved | ~decided  # the pairs not refuted
    np.fill_diagonal(todo, False)
    dims = [num_standard_tableaux(shape) for shape in parts]
    dim = np.maximum.outer(dims, dims)
    stream = (c for family in families for c in _family_graphs(family, n, budget, seed))
    for graph, witness, lam1, scale in _lambda1_blocks(stream, report, dim_cap):
        refuted, contradicted = _refutations(lam1, scale, todo, proved, graph.wt, dim, tol)
        if refuted.any() or contradicted.any():
            witness = witness or graph_witness(graph)
            # a contradiction's margin as `_refute` computes a refutation's
            values = lam1.tolist()
            report.contradictions += [
                {"sigma": str(parts[i]), "tau": str(parts[j]),
                 "margin": (values[i] - values[j]) / (scale or 1), "witness": witness}
                for i, j in zip(*_cells(contradicted))]
            _refute(ledger, refuted, lam1, scale, "scan", witness)
            report.refutations_found += int(np.count_nonzero(refuted))
            todo &= ~refuted
    refuted = ledger.code > _PROVED
    numeric = ledger.margin[refuted & ~ledger.exact]
    report.refutations_exact = int(np.count_nonzero(refuted)) - len(numeric)
    report.refutations_numeric = len(numeric)
    report.min_numeric_margin = float(numeric.min()) if len(numeric) else None
    return ledger, report


# -- the bound lemmas ---------------------------------------------------------

@dataclass
class BoundReport:
    name: str
    ok: bool
    bound: float
    worst: float
    trials: int = 1


def _require_row_class(sigma: Partition, k: int) -> None:
    if not in_row_class(sigma, k):
        raise ValueError(f"{sigma} is not in the first-row >= n-{k} class")


@lru_cache(maxsize=None)
def _lemma_matching(n: int, m: int) -> WeightedGraph:
    """The matching lemma's first graph, built once: the same object then
    keys lambda_extremes' cache by identity on every later instance."""
    return matching_graph(n, m)


def check_matching_bound(sigma: Partition, k: int, trials: int = 1,
                         tol: float = DEFAULT_TOL, seed: int = 0) -> BoundReport:
    """Largest eigenvalue of a 2k-edge matching stays at or below 2k."""
    n = sigma.n
    _require_row_class(sigma, k)
    if n < 4 * k:
        raise ValueError(f"need n >= 4k = {4 * k}, got {n}")
    # the first trial is the fixed matching; only the relabelled ones draw
    rng = np.random.default_rng(seed) if trials > 1 else None
    worst = 0.0
    for t in range(max(1, trials)):
        if t == 0:
            graph = _lemma_matching(n, 2 * k)
        else:
            # 2k disjoint edges on a random relabelling of the vertices
            ends = np.sort(rng.permutation(n)[:4 * k].reshape(2 * k, 2) + 1, axis=1)
            graph = WeightedGraph.from_edges(n, [(i, j, 1.0) for i, j in ends.tolist()])
        _, lam_max, _ = lambda_extremes(sigma, graph)
        worst = max(worst, float(lam_max))
    return BoundReport("matching", worst <= 2 * k + tol, 2 * k, worst,
                       max(1, trials))


def check_onestar_bounds(instances) -> list[BoundReport]:
    """One-star bound, per (sigma, k, l) instance: on the star joining
    vertex l + 1 to 1..l, the largest eigenvalue stays at or below l + k,
    exactly. The star's total weight is l, so by duality lambda_max(sigma) =
    2l - lambda_1(sigma'); each size makes one `nested_star_lambda1_scaled`
    walk, over its distinct shapes' conjugates and its size - 1 unit stars,
    whose lambda_1 values are integers."""
    instances = list(instances)
    shapes: dict[int, dict[Partition, None]] = {}  # the distinct shapes per size
    for sigma, k, l in instances:
        _require_row_class(sigma, k)
        if not 1 <= l <= sigma.n - 1:
            raise ValueError(f"need 1 <= l <= {sigma.n - 1}, got {l}")
        shapes.setdefault(sigma.n, {})[sigma] = None
    lam1_conj = {}
    for n, distinct in shapes.items():
        stars = [[int(j == l) for j in range(1, n)] for l in range(1, n)]
        _, rows = nested_star_lambda1_scaled([conjugate(s) for s in distinct], stars)
        lam1_conj.update(zip(distinct, rows))
    reports = []
    for sigma, k, l in instances:
        lam_max = 2 * l - lam1_conj[sigma][l - 1]
        reports.append(BoundReport("onestar", lam_max <= l + k, l + k, float(lam_max)))
    return reports


def _weighted_stars(weightings: list[list[float]]) -> list[WeightedGraph]:
    """weighted_star_graph(len(a) + 1, a) for each list a of checked
    weights, built as one stack per size."""
    graphs = {}
    for m in {len(a) for a in weightings}:
        indices = [idx for idx, a in enumerate(weightings) if len(a) == m]
        stack = np.zeros((len(indices), m + 1, m + 1))
        stack[:, 0, 1:] = stack[:, 1:, 0] = [weightings[idx] for idx in indices]
        graphs.update(zip(indices, WeightedGraph.from_stack(stack)))
    return [graphs[idx] for idx in range(len(weightings))]


def check_weightedstar_bounds(instances, tol: float = DEFAULT_TOL) -> list[BoundReport]:
    """Weighted-star bound, per (sigma, k, a) instance: the largest
    eigenvalue stays at or below twice the k heaviest edges plus the rest.
    The stars are built one stack per size and evaluated together by
    `_many`."""
    shapes, weightings, bounds = [], [], []
    for sigma, k, a in instances:
        _require_row_class(sigma, k)
        a = [float(x) for x in a]
        if len(a) != sigma.n - 1:
            raise ValueError(f"need {sigma.n - 1} weights")
        if any(a[i] < a[i + 1] for i in range(len(a) - 1)) or a[-1] < 0:
            raise ValueError("weights must be sorted nonincreasing and nonnegative")
        shapes.append(sigma)
        weightings.append(a)
        bounds.append(2 * sum(a[:k]) + sum(a[k:]))
    return [BoundReport("weightedstar", lam_max <= bound + tol, bound, float(lam_max))
            for (_, lam_max, _), bound in zip(_many(shapes, _weighted_stars(weightings)),
                                              bounds)]


def check_invariant_vector_bounds(instances, tol: float = DEFAULT_TOL) -> list[BoundReport]:
    """Invariant-vector bound, per (sigma, k, graph, vertices) instance: the
    lowest eigenvalue stays at or below twice the chosen vertices' weight.
    The graphs are evaluated together by `_many`."""
    shapes, graphs, bounds = [], [], []
    for sigma, k, graph, vertices in instances:
        _require_row_class(sigma, k)
        vertices = list(vertices)
        if len(set(vertices)) != k or not all(1 <= v <= graph.n for v in vertices):
            raise ValueError(f"need {k} distinct vertices in 1..{graph.n}")
        shapes.append(sigma)
        graphs.append(graph)
        bounds.append(2.0 * sum(float(graph.weights[v - 1].sum()) for v in vertices))
    return [BoundReport("invariant_vector", lam1 <= bound + tol, bound, float(lam1))
            for (lam1, _, _), bound in zip(_many(shapes, graphs), bounds)]


# -- DOT export ---------------------------------------------------------------

def export_dot(ledger: RelationLedger) -> str:
    """DOT digraph: transitive reduction of the proved relation, with
    mutually refuted pairs annotated as dotted non-arrows. A proved pair is
    drawn unless a longer proved path joins its ends, closed or not: a
    float32 product of the mask and its `_closure` counts them, exactly for
    p < 2^24. A proved cycle raises LedgerConflict."""
    parts = partitions_of(ledger.n)
    names = [str(part) for part in parts]
    proved = ledger._grid()[0]
    reach = _closure(proved)
    if reach.diagonal().any():
        raise LedgerConflict("proved relation contains a cycle")
    covers = proved & ~(proved.astype(np.float32) @ reach.astype(np.float32) > 0)

    lines = [f"digraph aldous_order_n{ledger.n} {{", '  rankdir=TB;']
    lines += [f'  "{name}" [label="{part.compact_str()}"];' for name, part in zip(names, parts)]
    lines += [f'  "{names[i]}" -> "{names[j]}";' for i, j in zip(*_cells(covers))]
    refuted = ledger.code > _PROVED
    lines += [f'  "{names[i]}" -> "{names[j]}" [style=dotted, dir=none, label=incomparable];'
              for i, j in zip(*_cells(np.triu(refuted & refuted.T)))]
    lines.append("}")
    return "\n".join(lines) + "\n"
