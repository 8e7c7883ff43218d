"""Closed-form lattice classification, explicit bowtie constructors, the
structural embeddings behind them, and the brute-force cross-validation
sweep."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from .crystal import (
    CrystalGraph,
    SizeLimitExceeded,
    dual_crystal,
    generate_crystal,
)
from .poset import find_bowtie, is_lattice
from .tableaux import Partition, Tableau, dual_shape, validate_tableau


class HypothesisViolated(ValueError):
    pass


CLAUSE_A1_A2 = "type A1/A2"
CLAUSE_COLUMNS = "(1^m)"
CLAUSE_TWO_ONE = "(2,1^m)"
CLAUSE_TWOS_ONES = "(2^(n-m),1^m)"
CLAUSE_ROW = "(k)"
CLAUSE_RECTANGLE = "(k^n)"
CLAUSE_ROW_PLUS_BOX = "(k,1)"
CLAUSE_NEAR_RECTANGLE = "(k^(n-1),k-1)"
CLAUSE_STAIRCASE = "(3,2,1) at n=3"


@dataclass(frozen=True)
class Classification:
    shape: Partition
    is_lattice_predicted: bool
    matched_clause: Optional[str]


def predict_lattice(shape: Partition) -> Classification:
    """Closed-form classification of which crystals are lattices."""
    parts, n = shape.parts, shape.n
    ell = len(parts)

    def hit(clause):
        return Classification(shape, True, clause)

    if n <= 2:
        return hit(CLAUSE_A1_A2)
    if all(p == 1 for p in parts):  # includes the empty shape
        return hit(CLAUSE_COLUMNS)
    if parts[0] == 2 and all(p == 1 for p in parts[1:]) and 2 <= ell <= n:
        return hit(CLAUSE_TWO_ONE)
    if ell == n and all(p in (1, 2) for p in parts) and 1 <= parts.count(1) <= n - 1:
        return hit(CLAUSE_TWOS_ONES)
    if ell == 1:
        return hit(CLAUSE_ROW)
    if ell == n and len(set(parts)) == 1:
        return hit(CLAUSE_RECTANGLE)
    if ell == 2 and parts[1] == 1:
        return hit(CLAUSE_ROW_PLUS_BOX)
    if ell == n and parts[0] >= 2 and parts[: n - 1] == (parts[0],) * (n - 1) \
            and parts[n - 1] == parts[0] - 1:
        return hit(CLAUSE_NEAR_RECTANGLE)
    if parts == (3, 2, 1) and n == 3:
        return hit(CLAUSE_STAIRCASE)
    return Classification(shape, False, None)


def bowtie_A(shape: Partition) -> tuple[Tableau, Tableau, Tableau, Tableau]:
    """Explicit no-join quadruple for shapes (a, b, 2) with a > b >= 2."""
    parts, n = shape.parts, shape.n
    if len(parts) != 3 or parts[2] != 2 or parts[0] <= parts[1] or n < 3:
        raise HypothesisViolated(f"need (a,b,2) with a>b>=2 and n>=3, got {parts}, n={n}")
    a, b = parts[0], parts[1]
    tail = (4,) * (a - b - 1)
    t1 = validate_tableau(shape, [(1,) * (b - 1) + (2, 2) + tail, (2,) * (b - 1) + (3,), (3, 4)])
    t2 = validate_tableau(shape, [(1,) * b + (3,) + tail, (2,) * b, (3, 4)])
    u1 = validate_tableau(shape, [(1,) * (b - 1) + (2, 3) + tail, (2,) * (b - 1) + (3,), (3, 4)])
    u2 = validate_tableau(shape, [(1,) * (b - 1) + (2, 3) + tail, (2,) * (b - 1) + (3,), (4, 4)])
    return t1, t2, u1, u2


def bowtie_B(shape: Partition) -> tuple[Tableau, Tableau, Tableau, Tableau]:
    """Explicit no-join quadruple for shapes (a, b, 1) with a - 2 >= b >= 1."""
    parts, n = shape.parts, shape.n
    if len(parts) != 3 or parts[2] != 1 or parts[0] - 2 < parts[1] or n < 3:
        raise HypothesisViolated(f"need (a,b,1) with a-2>=b>=1 and n>=3, got {parts}, n={n}")
    a, b = parts[0], parts[1]
    t1 = validate_tableau(shape, [(1, 1) + (3,) * (b - 1) + (4,) * (a - b - 1), (2,) + (4,) * (b - 1), (4,)])
    t2 = validate_tableau(shape, [(1, 1) + (3,) * b + (4,) * (a - b - 2), (2,) + (4,) * (b - 1), (4,)])
    u1 = validate_tableau(shape, [(1, 1) + (3,) * (b - 1) + (4,) * (a - b - 1), (3,) + (4,) * (b - 1), (4,)])
    u2 = validate_tableau(shape, [(1,) + (3,) * b + (4,) * (a - b - 1), (2,) + (4,) * (b - 1), (4,)])
    return t1, t2, u1, u2


def bowtie_E(shape: Partition) -> tuple[Tableau, Tableau, Tableau, Tableau]:
    """Explicit no-join quadruple for shapes (a, 2) with n >= 3."""
    parts, n = shape.parts, shape.n
    if len(parts) != 2 or parts[1] != 2 or n < 3:
        raise HypothesisViolated(f"need (a,2) with n>=3, got {parts}, n={n}")
    a = parts[0]
    t1 = validate_tableau(shape, [(1,) * (a - 1) + (3,), (3, 4)])
    t2 = validate_tableau(shape, [(1,) * (a - 1) + (2,), (3, 4)])
    u1 = validate_tableau(shape, [(1,) * (a - 1) + (3,), (4, 4)])
    u2 = validate_tableau(shape, [(1,) * (a - 2) + (2, 3), (3, 4)])
    return t1, t2, u1, u2


def nojoin_D(shape: Partition) -> tuple[Tableau, Tableau]:
    """The two explicit joinless pairs in rank 4."""
    if shape.n != 4:
        raise HypothesisViolated(f"rank must be 4, got {shape.n}")
    if shape.parts == (3, 3, 2, 1):
        return (
            validate_tableau(shape, [(1, 2, 2), (3, 3, 4), (4, 5), (5,)]),
            validate_tableau(shape, [(1, 2, 3), (3, 3, 4), (4, 5), (5,)]),
        )
    if shape.parts == (3, 2, 1, 1):
        return (
            validate_tableau(shape, [(1, 1, 3), (2, 5), (4,), (5,)]),
            validate_tableau(shape, [(1, 1, 4), (2, 5), (4,), (5,)]),
        )
    raise HypothesisViolated(f"no explicit pair for {shape.parts}")


def iota_embed(t: Tableau, target: Partition) -> Tableau:
    """Prepend an all-1s first row and shift every other entry up by one;
    an order isomorphism onto an order ideal of the larger crystal."""
    if target.parts[1:] != t.shape.parts or target.n != t.shape.n + 1:
        raise HypothesisViolated(
            f"target {target.parts} (n={target.n}) does not extend "
            f"{t.shape.parts} (n={t.shape.n}) by one top row"
        )
    rows = [(1,) * target.parts[0]]
    rows.extend(tuple(v + 1 for v in row) for row in t.rows)
    return validate_tableau(target, rows)


def eta_embed(t: Tableau, target: Partition, t_cols: int) -> Tableau:
    """Prefix t_cols columns in which row i holds the entry i; an order
    isomorphism onto a principal order ideal."""
    mu = t.shape.parts
    if (
        target.n != t.shape.n
        or len(target.parts) != len(mu)
        or any(target.parts[i] != mu[i] + t_cols for i in range(len(mu)))
        or not (0 <= t_cols < target.parts[-1] if target.parts else t_cols == 0)
    ):
        raise HypothesisViolated(
            f"target {target.parts} is not {mu} plus {t_cols} identity columns"
        )
    rows = [(i,) * t_cols + row for i, row in enumerate(t.rows, start=1)]
    return validate_tableau(target, rows)


def _dual_quad(graph: CrystalGraph) -> tuple[Tableau, Tableau, Tableau, Tableau]:
    """A bowtie quadruple of tableaux in the crystal graph of a shape nu,
    built constructively when a reduced pattern of nu applies and by
    scanning the graph otherwise."""
    nu = graph.shape
    parts, n = nu.parts, nu.n
    ell = len(parts)
    # literal three-row pattern in the last three rows q..q+2
    q = ell - 2
    if q >= 1 and nu.part(q) - 2 >= nu.part(q + 1) >= nu.part(q + 2) >= 1:
        rank = n - q + 1
        t_cols = nu.part(q + 2) - 1
        reduced = Partition((nu.part(q) - t_cols, nu.part(q + 1) - t_cols, 1), rank)
        quad = bowtie_B(reduced)
        mid = Partition((nu.part(q), nu.part(q + 1), nu.part(q + 2)), rank)
        quad = tuple(eta_embed(x, mid, t_cols) for x in quad)
        for r in range(q - 1, 0, -1):
            quad = tuple(iota_embed(x, Partition(parts[r - 1:], rank + q - r)) for x in quad)
        return quad  # type: ignore[return-value]
    if ell == 2 and parts[1] >= 2 and n >= 3:
        t_cols = parts[1] - 2
        quad = bowtie_E(Partition((parts[0] - t_cols, 2), n))
        return tuple(eta_embed(x, nu, t_cols) for x in quad)  # type: ignore[return-value]
    cert = find_bowtie(graph)
    if cert is None:
        raise HypothesisViolated(f"no bowtie exists in the crystal of {parts}")
    quad = (cert.t1, cert.t2, cert.u1, cert.u2)
    return tuple(graph.tableau(v) for v in quad)  # type: ignore[return-value]


def bowtie_C_via_duality(shape: Partition, p: int) -> tuple[Tableau, Tableau, Tableau, Tableau]:
    """No-join quadruple for shapes with lambda_p >= lambda_{p+1} >=
    lambda_{p+2} + 2 (zero-padded indices): build the mirrored certificate in
    the dual crystal and pull it back through the duality isomorphism."""
    n = shape.n
    ell = len(shape.parts)
    if not (1 <= p <= ell - 2) or not (
        shape.part(p) >= shape.part(p + 1) >= shape.part(p + 2) + 2
    ):
        raise HypothesisViolated(
            f"rows {p}..{p + 2} of {shape.parts} do not drop by two"
        )
    nu = dual_shape(shape)
    q = n - p
    if not nu.part(q) - 2 >= nu.part(q + 1) >= nu.part(q + 2):
        raise HypothesisViolated("dual-shape pattern check failed")
    graph = generate_crystal(shape)
    dual = dual_crystal(graph)
    quad = _dual_quad(dual.graph)
    back = dual.from_dual()
    return tuple(  # type: ignore[return-value]
        graph.tableau(back[dual.graph.vertex_id(x)]) for x in quad
    )


@dataclass
class SweepRow:
    parts: tuple[int, ...]
    n: int
    predicted: bool
    clause: Optional[str]
    brute_force: Optional[bool]
    vertices: Optional[int]
    millis: float
    skipped: bool = False

    @property
    def agrees(self) -> Optional[bool]:
        return None if self.skipped else self.predicted == self.brute_force


@dataclass
class SweepReport:
    rows: list[SweepRow]

    @property
    def disagreements(self) -> list[SweepRow]:
        return [r for r in self.rows if r.agrees is False]

    @property
    def skipped(self) -> list[SweepRow]:
        return [r for r in self.rows if r.skipped]


def sweep_pairs(max_n: int, max_cells: int):
    """(parts, n) pairs covered by the classification sweep, deterministic
    order: every nonempty partition with at most max_cells cells and max_n
    parts, with each rank n from its length up to max_n."""
    def partitions(remaining, max_part, prefix):
        for p in range(min(remaining, max_part), 0, -1):
            cur = prefix + (p,)
            yield cur
            if len(cur) < max_n:
                yield from partitions(remaining - p, p, cur)

    return [(parts, n) for parts in sorted(partitions(max_cells, max_cells, ()))
            for n in range(len(parts), max_n + 1)]


def _sweep_one(args) -> SweepRow:
    parts, n, cap = args
    shape = Partition(parts, n)
    prediction = predict_lattice(shape)
    start = time.perf_counter()
    try:
        graph = generate_crystal(shape, cap=cap)
    except SizeLimitExceeded:
        brute = vertices = None
    else:
        brute, vertices = is_lattice(graph).is_lattice, graph.num_vertices
    return SweepRow(
        parts=parts, n=n, predicted=prediction.is_lattice_predicted,
        clause=prediction.matched_clause, brute_force=brute, vertices=vertices,
        millis=(time.perf_counter() - start) * 1000, skipped=brute is None,
    )


def classification_sweep(max_n: int, max_cells: int,
                         vertex_cap: Optional[int] = None,
                         jobs: int = 1) -> SweepReport:
    """Compare the closed-form prediction against brute force for every
    shape/rank pair within the bounds; oversized crystals are listed as
    skipped rather than silently dropped; at most one worker per CPU."""
    for name, bound in (("max_n", max_n), ("max_cells", max_cells)):
        if bound < 0:
            raise ValueError(f"{name} must be at least 0, got {bound}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [(parts, n, vertex_cap) for parts, n in sweep_pairs(max_n, max_cells)]
    if (workers := min(jobs, len(tasks), os.cpu_count() or 1)) > 1:
        # Imported here: the pool's modules cost every start-up that never forks.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]
    return SweepReport(rows=rows)
