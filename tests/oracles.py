"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: direct enumeration and graph search
with no shared code paths with the library internals they check.
"""

from __future__ import annotations

from typing import Optional

from crystalpop.crystal import CrystalGraph, levi_restrict
from crystalpop.perm import Permutation, identity, reduced_word
from crystalpop.pop import down_colors
from crystalpop.poset import NotPoppable, components_and_sources
from crystalpop.tableaux import Partition, Tableau, highest_weight_tableau, reading_cells


def enumerate_ssyt(shape: Partition) -> list[Tableau]:
    """All semistandard fillings of the shape with entries in [1, n+1],
    by cell-at-a-time backtracking."""
    parts = shape.parts
    bound = shape.n + 1
    cells = [(i, j) for i in range(len(parts)) for j in range(parts[i])]
    grid = [[0] * w for w in parts]
    out: list[Tableau] = []

    def fill(k: int) -> None:
        if k == len(cells):
            out.append(Tableau(shape, tuple(tuple(r) for r in grid)))
            return
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for val in range(lo, bound + 1):
            grid[i][j] = val
            fill(k + 1)
        grid[i][j] = 0

    fill(0)
    return out


def lowering_by_cells(t: Tableau, i: int) -> Optional[Tableau]:
    """F_i by a bracket scan of the cells for color i alone: bump the
    rightmost unmatched i to i+1 (the tableau is revalidated)."""
    depth = 0
    target = None
    for cell in reading_cells(t.shape):
        letter = t.entry(*cell)
        if letter == i + 1:
            depth += 1
        elif letter == i:
            if depth > 0:
                depth -= 1
            else:
                target = cell
    if target is None:
        return None
    return t.with_entry(*target, i + 1)


def raising_by_cells(t: Tableau, i: int) -> Optional[Tableau]:
    """E_i with a stack of open i+1 cells: drop the leftmost unmatched i+1."""
    stack = []
    for cell in reading_cells(t.shape):
        letter = t.entry(*cell)
        if letter == i + 1:
            stack.append(cell)
        elif letter == i and stack:
            stack.pop()
    if not stack:
        return None
    return t.with_entry(*stack[0], i)


def generate_crystal_by_tableaux(shape: Partition) -> CrystalGraph:
    """Breadth-first closure of the highest-weight tableau under
    lowering_by_cells, one tableau and one color at a time."""
    n = shape.n
    t_min = highest_weight_tableau(shape)
    vertices = [t_min]
    index = {t_min: 0}
    succ: list[list[Optional[int]]] = [[None] * n]
    pred: list[list[Optional[int]]] = [[None] * n]
    head = 0
    while head < len(vertices):
        for i in range(1, n + 1):
            img = lowering_by_cells(vertices[head], i)
            if img is None:
                continue
            w = index.get(img)
            if w is None:
                w = len(vertices)
                index[img] = w
                vertices.append(img)
                succ.append([None] * n)
                pred.append([None] * n)
            succ[head][i - 1] = w
            pred[w][i - 1] = head
        head += 1
    return CrystalGraph(shape=shape, vertices=vertices, succ=succ, pred=pred, index=index)


def pop_crystal_by_components(graph: CrystalGraph, v: int) -> int:
    """Defining form of the crystal pop: the unique source of the component
    of v in the crystal restricted to the down-colors of v."""
    view = levi_restrict(graph, down_colors(graph, v))
    _, sources = components_and_sources(view, v)
    if len(sources) != 1:
        raise NotPoppable(f"component of {v} has sources {sorted(sources)}")
    return next(iter(sources))


def reachable_sets(graph) -> list[set[int]]:
    """reach[v] = all w with v <= w, by plain DFS over the succ lists."""
    size = graph.num_vertices
    reach: list[set[int]] = [set() for _ in range(size)]
    for v in range(size - 1, -1, -1):
        acc = {v}
        for w in graph.succ[v]:
            if w is not None:
                acc |= reach[w]
        reach[v] = acc
    return reach


def naive_join(reach: list[set[int]], u: int, v: int):
    """Unique minimal common upper bound, or None."""
    common = reach[u] & reach[v]
    minimal = [w for w in common if not any(x != w and w in reach[x] for x in common)]
    return minimal[0] if len(minimal) == 1 else None


def naive_meet(reach: list[set[int]], size: int, ids):
    lower = [w for w in range(size) if all(v in reach[w] for v in ids)]
    maximal = [w for w in lower if not any(x != w and x in reach[w] for x in lower)]
    return maximal[0] if len(maximal) == 1 else None


def inversion_count(p: Permutation) -> int:
    """Number of position pairs a < b with p(a) > p(b)."""
    line = p.one_line
    return sum(
        1 for a in range(len(line)) for b in range(a + 1, len(line))
        if line[a] > line[b]
    )


def weak_leq_by_length(u: Permutation, w: Permutation) -> bool:
    """Right weak order: u <= w iff lengths add along u^{-1}w."""
    inv = [0] * u.m
    for pos, val in enumerate(u.one_line, start=1):
        inv[val - 1] = pos
    u_inv_w = Permutation(tuple(inv[j - 1] for j in w.one_line))
    return inversion_count(u) + inversion_count(u_inv_w) == inversion_count(w)


def bruhat_leq_by_rank_counts(u: Permutation, w: Permutation) -> bool:
    """Bruhat order via dominance of rank matrices, each entry counted
    afresh."""
    m = u.m
    for i in range(1, m):
        for j in range(1, m + 1):
            # counts of entries >= j among the first i positions
            cu = sum(1 for a in range(i) if u.one_line[a] >= j)
            cw = sum(1 for a in range(i) if w.one_line[a] >= j)
            if cu > cw:
                return False
    return True


def bruhat_lower_interval(w: Permutation) -> set[Permutation]:
    """All u <= w in Bruhat order: the subword products of a reduced word
    of w (the subword products of one reduced word form the full lower
    interval)."""
    products = {identity(w.m)}
    for i in reduced_word(w):
        products |= {x.right_mult_gen(i) for x in products}
    return products


def weak_order_pairs(perms) -> set[tuple[Permutation, Permutation]]:
    """All (u, w) with u <= w in right weak order, by BFS over covers
    w -> w s_i that increase the inversion count."""
    below: dict[Permutation, set[Permutation]] = {}
    for w in sorted(perms, key=inversion_count):
        acc = {w}
        for i in range(1, w.m):
            u = w.right_mult_gen(i)
            if inversion_count(u) < inversion_count(w):
                acc |= below[u]
        below[w] = acc
    return {(u, w) for w, us in below.items() for u in us}
