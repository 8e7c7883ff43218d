"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: direct enumeration and graph search
with no shared code paths with the library internals they check.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field, make_dataclass
from typing import Optional

from crystalpop import crystal, key
from crystalpop.classifier import Classification, SweepReport, SweepRow
from crystalpop.crystal import (
    CrystalGraph, DualCrystal, IsomorphismFailure, SizeLimitExceeded, default_cap,
    stabilizer_colors, weyl_reflect,
)
from crystalpop.key import DemazureFamily, InconsistentFamily, NonUniqueMinimum
from crystalpop.perm import (
    CheckReport, Permutation, bruhat_leq, coxeter_pop, parabolic_quotient, permutation_lines,
    weak_leq,
)
from crystalpop.poset import BowtieCertificate, LatticeResult, ReachabilityIndex, join
from crystalpop.pop import MAX_POPPABLE_COLORS, OrbitReport, pop_crystal
from crystalpop.tableaux import (
    ColumnViolation, EntryOutOfRange, Partition, RowViolation, Tableau, format_rows,
    highest_weight_tableau, hook_content_count, reading_cells, reading_word, row_slices,
)


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


def weight(t: Tableau) -> tuple[int, ...]:
    """counts[k-1] = number of entries equal to k, for k in [1, n+1]."""
    counts = [0] * (t.shape.n + 1)
    for row in t.rows:
        for val in row:
            counts[val - 1] += 1
    return tuple(counts)


def hook_content_count_by_product(shape: Partition) -> int:
    """Number of semistandard tableaux of this shape with entries at most
    n+1, by the hook-content product: one factor per cell into two
    factorial-sized ints, so quadratic in the size of the shape."""
    parts = shape.parts
    if not parts:
        return 1
    conj = [sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)]
    num = den = 1
    for i, width in enumerate(parts, start=1):
        for j in range(1, width + 1):
            num *= shape.n + 1 + j - i  # n+1 plus the content
            den *= (width - j) + (conj[j - 1] - i) + 1  # the hook length
    count, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("hook-content product is not integral")
    return count


def lowering_by_cells(t: Tableau, i: int) -> Optional[Tableau]:
    """F_i by a bracket scan of the cells for color i alone: bump the
    rightmost unmatched i to i+1 (the tableau is revalidated)."""
    depth = 0
    target = None
    for cell in reading_cells(t.shape):
        letter = t.rows[cell[0] - 1][cell[1] - 1]
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
        letter = t.rows[cell[0] - 1][cell[1] - 1]
        if letter == i + 1:
            stack.append(cell)
        elif letter == i and stack:
            stack.pop()
    if not stack:
        return None
    return t.with_entry(*stack[0], i)


def generate_crystal_by_tableaux(shape: Partition):
    """Breadth-first closure of the highest-weight tableau under
    lowering_by_cells, one tableau and one color at a time: the tableaux in
    discovery order and the succ and pred tables."""
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
    return vertices, succ, pred


def _lowering_targets(word, n: int) -> list[Optional[int]]:
    """targets[i] is the position of the letter F_i bumps in a reading word,
    or None if F_i is zero, for all colors i in [1, n+1] at once."""
    depth = [0] * (n + 2)
    targets: list[Optional[int]] = [None] * (n + 2)
    for p, a in enumerate(word):
        depth[a - 1] += 1
        if depth[a]:
            depth[a] -= 1
        else:
            targets[a] = p
    return targets


def _check_bump(cells, p: int, value: int, word, right, below, top: int) -> None:
    """validate_tableau, with the same errors, for a semistandard word whose
    letter p grows to value: only that cell can break a condition."""
    (i, j), r, b = cells[p], right[p], below[p]
    if value > top:
        raise EntryOutOfRange((i, j), f"{value} not in [1, {top}]")
    if r is not None and word[r] < value:
        raise RowViolation((i, j + 1), f"{value} > {word[r]}")
    if b is not None and word[b] <= value:
        raise ColumnViolation((i + 1, j), f"{value} >= {word[b]}")


def generate_crystal_by_words(shape: Partition, cap: Optional[int] = None):
    """Breadth-first closure of the highest-weight tableau under all F_i, on
    reading-word tuples: a full bracket scan of each word, and each image
    built as a tuple and looked up by its hash. Returns the words in
    discovery order and the succ and pred tables, pred stored per edge."""
    if cap is None:
        cap = default_cap()
    n = shape.n
    over_cap = f"crystal for {shape.parts} at n={n} exceeds cap {cap}"
    if hook_content_count(shape) > cap:
        raise SizeLimitExceeded(over_cap)
    cells = reading_cells(shape)
    position = {cell: p for p, cell in enumerate(cells)}
    right = [position.get((i, j + 1)) for i, j in cells]
    below = [position.get((i + 1, j)) for i, j in cells]
    words = [reading_word(highest_weight_tableau(shape))]
    ids = {words[0]: 0}
    succ: list[list[Optional[int]]] = [[None] * n]
    pred: list[list[Optional[int]]] = [[None] * n]
    head = 0
    while head < len(words):
        word = words[head]
        targets = _lowering_targets(word, n)
        for i in range(1, n + 1):
            p = targets[i]
            if p is None:
                continue
            _check_bump(cells, p, i + 1, word, right, below, n + 1)
            img = word[:p] + (i + 1,) + word[p + 1:]
            if (w := ids.get(img)) is None:
                if len(words) >= cap:
                    raise SizeLimitExceeded(over_cap)
                w = len(words)
                ids[img] = w
                words.append(img)
                succ.append([None] * n)
                pred.append([None] * n)
            succ[head][i - 1] = w
            pred[w][i - 1] = head
        head += 1
    return words, succ, pred


def graph_words(graph: CrystalGraph) -> list[tuple[int, ...]]:
    """Every vertex's reading word, read back from graph.tableau on each call,
    so a graph still being generated reads as far as it has grown."""
    return [reading_word(graph.tableau(v)) for v in range(graph.num_vertices)]


def unique_sink(graph: CrystalGraph) -> int:
    """The one vertex with no outgoing edge (the maximum)."""
    sinks = [v for v, row in enumerate(graph.succ) if not any(x is not None for x in row)]
    if len(sinks) != 1:
        raise IsomorphismFailure(f"expected a unique sink, found {sinks}")
    return sinks[0]


def to_json_by_dumps(graph: CrystalGraph) -> str:
    """The export as a payload of dicts passed to json.dumps(indent=2)."""
    payload = {
        "lambda": list(graph.shape.parts),
        "n": graph.n,
        "vertices": [
            {"id": v, "rows": str(graph.tableau(v))}
            for v in range(graph.num_vertices)
        ],
        "edges": [
            {"src": src, "dst": dst, "color": color}
            for src, dst, color in graph.edges()
        ],
    }
    return json.dumps(payload, indent=2)


def to_dot_by_format_rows(graph: CrystalGraph) -> str:
    """The dot export with each vertex label formatted from its own rows."""
    palette = ["red", "blue", "green3", "orange", "purple", "brown", "cyan3", "magenta"]
    lines = ["digraph crystal {", "  rankdir=BT;"]
    for v in range(graph.num_vertices):
        lines.append(f'  v{v} [label="{format_rows(graph.rows(v))}"];')
    for src, dst, color in graph.edges():
        pen = palette[(color - 1) % len(palette)]
        lines.append(f'  v{src} -> v{dst} [label="F{color}", color={pen}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def texts_by_row_memos(graph: CrystalGraph) -> list[str]:
    """format_rows(graph.rows(v)) for every v, a row slice at a time: each row
    is cut out of the code with a shift and a mask, and each distinct row
    code is formatted once."""
    width = (graph.n + 1).bit_length()
    columns = []
    for cut in row_slices(graph.shape):
        lo, size = width * cut.start, cut.stop - cut.start
        mask = (1 << width * size) - 1
        memo: dict[int, str] = {}
        column = []
        for code in graph.codes:
            row = code >> lo & mask
            if row not in memo:
                memo[row] = ",".join(str(row >> width * p & (1 << width) - 1) for p in range(size))
            column.append(memo[row])
        columns.append(column)
    return list(map("/".join, zip(*columns))) if columns else [""] * graph.num_vertices


def vertex_blocks_by_templates(graph: CrystalGraph, line: str):
    """line % (v, text) for every vertex v and its text, joined a block of
    crystal.BLOCK ids at a time."""
    texts, block = texts_by_row_memos(graph), crystal.BLOCK
    for start in range(0, len(texts), block):
        yield "".join([line % pair for pair in enumerate(texts[start:start + block], start)])


def edge_blocks_by_templates(graph: CrystalGraph, head: str, tails: list[str]):
    """head % v + str(w) + tails[i - 1] for every edge w = F_i(v) in id order,
    joined a block of crystal.BLOCK source ids at a time."""
    succ, block = graph.succ, crystal.BLOCK
    for start in range(0, len(succ), block):
        items: list[str] = []
        for v, row in enumerate(succ[start:start + block], start):
            h = head % v
            items += [h + str(w) + tail for w, tail in zip(row, tails) if w is not None]
        yield "".join(items)


def gen_csv_by_writer(graph: CrystalGraph) -> str:
    """gen --format csv: a csv.writer row per edge."""
    buf = io.StringIO()
    csv.writer(buf).writerows([("src", "dst", "color"), *graph.edges()])
    return buf.getvalue()


def gen_text_by_format_rows(graph: CrystalGraph, shape_text: str) -> str:
    """gen --format text, each vertex formatted from its own rows."""
    lines = [f"crystal {shape_text} n={graph.n}: {graph.num_vertices} vertices"]
    lines += [f"  {v}: {format_rows(graph.rows(v))}" for v in range(graph.num_vertices)]
    lines += [f"  {v} -> {w} (F{c})" for v, w, c in graph.edges()]
    return "\n".join(lines) + "\n"


def pop_csv_by_color_sets(graph: CrystalGraph) -> str:
    """pop --format csv: a csv.writer row of id, text and orbit length per
    vertex, each orbit walked with pop_crystal_by_color_sets."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "tableau", "orbit_length"])
    for v in range(graph.num_vertices):
        length, w = 1, v
        while (u := pop_crystal_by_color_sets(graph, w)) != w:
            length, w = length + 1, u
        writer.writerow([v, format_rows(graph.rows(v)), length])
    return buf.getvalue()


def weyl_act(graph: CrystalGraph, v: int, word) -> int:
    """Right action: apply the reflections left to right."""
    for i in word:
        v = weyl_reflect(graph, v, i)
    return v


def embed_parabolic_quotient_by_words(graph: CrystalGraph) -> dict[Permutation, int]:
    """Map each minimal coset representative w (for the stabilizer of the
    shape) to the vertex reached from the minimum by acting with a reduced
    word of w."""
    kset = stabilizer_colors(graph.shape)
    out = {}
    for w in parabolic_quotient_by_filter(kset, graph.n + 1):
        out[w] = weyl_act(graph, 0, reduced_word(w))
    return out


def down_colors(graph: CrystalGraph, v: int) -> frozenset[int]:
    """Colors of the edges entering v (the vertex's descents)."""
    return frozenset(
        i for i in range(1, graph.n + 1) if graph.pred[v][i - 1] is not None
    )


def pop_crystal_by_color_sets(graph: CrystalGraph, v: int) -> int:
    """Descent walk on color sets: raise to exhaustion along the smallest
    color that is a descent of both v and the current vertex."""
    target = down_colors(graph, v)
    cur = v
    while True:
        avail = target & down_colors(graph, cur)
        if not avail:
            return cur
        i = min(avail)
        while graph.pred[cur][i - 1] is not None:
            cur = graph.pred[cur][i - 1]


def locate(graph: CrystalGraph, quad) -> BowtieCertificate:
    """Vertex-id certificate for a quadruple of tableaux."""
    t1, t2, u1, u2 = (graph.vertex_id(x) for x in quad)
    return BowtieCertificate(t1=t1, t2=t2, u1=u1, u2=u2)


def find_bowtie_by_candidates(graph: CrystalGraph,
                              index: Optional[ReachabilityIndex] = None
                              ) -> Optional[BowtieCertificate]:
    """First bowtie over cover edges (t1, u1), trying every candidate u2 in
    id order and taking the first t2 that fits."""
    if index is None:
        index = ReachabilityIndex(graph)
    up, down = index.up, index.down
    for t1 in range(graph.num_vertices):
        cmp_t1 = up[t1] | down[t1]
        for u1 in graph.succ[t1]:
            if u1 is None:
                continue
            candidates = up[t1] & ~up[u1] & ~down[u1]
            while candidates:
                u2 = (candidates & -candidates).bit_length() - 1
                candidates &= candidates - 1
                t2bits = down[u1] & down[u2] & ~cmp_t1
                if t2bits:
                    t2 = (t2bits & -t2bits).bit_length() - 1
                    return BowtieCertificate(t1=t1, t2=t2, u1=u1, u2=u2)
    return None


def is_lattice_by_pairs(graph: CrystalGraph,
                        index: Optional[ReachabilityIndex] = None) -> LatticeResult:
    """Check that every pair has a join (sufficient here: unique minimum and
    maximum). Pairs are scanned in id order, so the witness is deterministic."""
    if index is None:
        index = ReachabilityIndex(graph)
    size = graph.num_vertices
    up = index.up
    for u in range(size):
        up_u = up[u]
        for v in range(u + 1, size):
            if up_u >> v & 1:
                continue  # comparable pairs always have a join
            common = up_u & up[v]
            z = (common & -common).bit_length() - 1
            if common != up[z]:
                return LatticeResult(False, (u, v))
    return LatticeResult(True)


def is_lattice_by_covers(graph: CrystalGraph,
                         index: Optional[ReachabilityIndex] = None) -> LatticeResult:
    """The cover check on the full index: every two covers of each vertex,
    rows in id order, must have a join. A non-lattice's witness is the first
    joinless pair of the pairwise scan."""
    if index is None:
        index = ReachabilityIndex(graph)
    for row in graph.succ:
        for x, y in itertools.combinations([w for w in row if w is not None], 2):
            if join(index, x, y) is None:
                witness = is_lattice_by_pairs(graph, index).witness
                if witness is None:
                    raise RuntimeError(f"covers {x}, {y} have no join but the pair scan finds none")
                return LatticeResult(False, witness)
    return LatticeResult(True)


def is_lattice_top_down(graph: CrystalGraph,
                        index: Optional[ReachabilityIndex] = None) -> LatticeResult:
    """The cover lemma read top-down: every two covers of each vertex must
    have a join. One pass from the top id down to 0 builds up-sets in
    reversed bit order (vertex w is bit top - w), so the lowest id in a
    common up-set is its highest bit; an empty common up-set, possible only
    without a maximum, is joinless. A non-lattice's witness is the first
    joinless pair of the pairwise scan."""
    succ = graph.succ
    top = graph.num_vertices - 1
    up = [0] * (top + 1)
    for v in range(top, -1, -1):
        covers = [w for w in succ[v] if w is not None]
        bits = 1 << top - v
        for w in covers:
            bits |= up[w]
        up[v] = bits
        for x, y in itertools.combinations(covers, 2):
            common = up[x] & up[y]
            if not common or common != up[top + 1 - common.bit_length()]:
                return LatticeResult(False, is_lattice_by_pairs(graph, index).witness)
    return LatticeResult(True)


class NotPoppable(RuntimeError):
    """A color-restricted component has more than one source."""


@dataclass(frozen=True)
class LeviView:
    """The crystal with only the edges whose colors lie in a chosen subset."""

    graph: CrystalGraph
    colors: frozenset[int]

    def succ_edges(self, v: int):
        for i in self.colors:
            w = self.graph.succ[v][i - 1]
            if w is not None:
                yield w, i

    def pred_edges(self, v: int):
        for i in self.colors:
            w = self.graph.pred[v][i - 1]
            if w is not None:
                yield w, i


def levi_restrict(graph: CrystalGraph, colors) -> LeviView:
    colors = frozenset(colors)
    bad = colors - set(range(1, graph.n + 1))
    if bad:
        raise ValueError(f"colors {sorted(bad)} outside [1, {graph.n}]")
    return LeviView(graph, colors)


def components_and_sources(view: LeviView, start: int) -> tuple[set[int], set[int]]:
    """Weakly-connected component of start in the color-restricted graph,
    together with its in-degree-zero vertices."""
    component = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for w, _ in view.succ_edges(v):
            if w not in component:
                component.add(w)
                queue.append(w)
        for w, _ in view.pred_edges(v):
            if w not in component:
                component.add(w)
                queue.append(w)
    sources = {v for v in component if not any(True for _ in view.pred_edges(v))}
    return component, sources


def is_poppable_by_components(graph) -> bool:
    """Every component of every color restriction has a unique source, by a
    graph search per component of each of the 2^n color subsets."""
    n = graph.n
    if n > MAX_POPPABLE_COLORS:
        raise ValueError(f"2^{n} color subsets is past the practical limit")
    for mask in range(1 << n):
        colors = frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
        view = levi_restrict(graph, colors)
        remaining = set(range(graph.num_vertices))
        while remaining:
            start = remaining.pop()
            component, sources = components_and_sources(view, start)
            if len(sources) != 1:
                return False
            remaining -= component
    return True


def is_poppable_by_subsets(graph) -> bool:
    """Every component of every color restriction has a unique source, by
    one labelling pass in id order per nonempty color set, 2^n - 1 of them:
    a vertex with no J-predecessor is its own label, any other takes the
    label of its J-predecessors, and the check fails when two differ."""
    n = graph.n
    if n > MAX_POPPABLE_COLORS:
        raise ValueError(f"2^{n} color subsets is past the practical limit")
    for mask in range(1, 1 << n):
        colors = [i for i in range(n) if mask >> i & 1]
        label = list(range(graph.num_vertices))
        for v, row in enumerate(graph.pred):
            mine = None
            for i in colors:
                w = row[i]
                if w is not None:
                    if mine is None:
                        mine = label[w]
                    elif label[w] != mine:
                        return False
            if mine is not None:
                label[v] = mine
    return True


def far_colors_commute(pred, n: int) -> bool:
    """Stembridge's local axioms for colors i, j with |i - j| >= 2 (Trans.
    AMS 355, 2003), read from pred at every vertex v: E_j E_i v and E_i E_j v
    agree (undefined counting as equal), and are defined where E_i v and E_j v
    are. So F_j keeps E_i defined or undefined as it was, and vice versa."""
    pairs = [(i, j) for i in range(n) for j in range(i + 2, n)]
    for row in pred:
        for i, j in pairs:
            a, b = row[i], row[j]
            if a is not None:
                if b is not None:
                    if (c := pred[a][j]) is None or c != pred[b][i]:
                        return False
                elif pred[a][j] is not None:
                    return False
            elif b is not None and pred[b][i] is not None:
                return False
    return True


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


def all_permutations(m: int):
    """All of S_m as Permutations, in lexicographic one-line order."""
    return map(Permutation, permutation_lines(m))


def inversion_count(p: Permutation) -> int:
    """Number of position pairs a < b with p(a) > p(b)."""
    line = p.one_line
    return sum(
        1 for a in range(len(line)) for b in range(a + 1, len(line))
        if line[a] > line[b]
    )


def length(w: Permutation) -> int:
    """Coxeter length: the popcount of the inversion mask."""
    return w.inversion_mask.bit_count()


def longest_element(m: int) -> Permutation:
    return Permutation(tuple(range(m, 0, -1)))


def descents_commute(w: Permutation) -> bool:
    """True iff no two right descents are adjacent (no double descent)."""
    desc = right_descents(w)
    return all(i + 1 not in desc for i in desc)


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


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_k) with w = s_{i_1} ... s_{i_k}."""
    word = []
    cur = w
    while True:
        desc = right_descents(cur)
        if not desc:
            break
        i = min(desc)
        cur = right_mult_gen(cur, i)
        word.append(i)
    word.reverse()
    return tuple(word)


def bruhat_lower_interval(w: Permutation) -> set[Permutation]:
    """All u <= w in Bruhat order: the subword products of a reduced word
    of w (the subword products of one reduced word form the full lower
    interval)."""
    products = {identity(w.m)}
    for i in reduced_word(w):
        products |= {right_mult_gen(x, i) for x in products}
    return products


def weak_order_pairs(perms) -> set[tuple[Permutation, Permutation]]:
    """All (u, w) with u <= w in right weak order, by BFS over covers
    w -> w s_i that increase the inversion count."""
    below: dict[Permutation, set[Permutation]] = {}
    for w in sorted(perms, key=inversion_count):
        acc = {w}
        for i in range(1, w.m):
            u = right_mult_gen(w, i)
            if inversion_count(u) < inversion_count(w):
                acc |= below[u]
        below[w] = acc
    return {(u, w) for w, us in below.items() for u in us}


def left_descents(w: Permutation) -> frozenset[int]:
    """The i such that i+1 stands before i: the inverted pairs (i, i+1)."""
    mask, m = w.inversion_mask, w.m
    return frozenset(i for i in range(1, m) if mask >> ((i - 1) * m + i) & 1)


def parabolic_quotient_by_filter(gens, m: int) -> list[Permutation]:
    """All w in S_m with left descents avoiding the generator set, by
    filtering all of S_m, sorted by length, then one-line order."""
    gens = frozenset(gens)
    out = [w for w in all_permutations(m) if not (left_descents(w) & gens)]
    out.sort(key=lambda w: (length(w), w.one_line))
    return out


def identity(m: int) -> Permutation:
    return Permutation(tuple(range(1, m + 1)))


def right_descents(w: Permutation) -> frozenset[int]:
    """The i such that w(i) > w(i+1)."""
    line = w.one_line
    return frozenset(i for i in range(1, len(line)) if line[i - 1] > line[i])


def right_mult_gen(w: Permutation, i: int) -> Permutation:
    """w * s_i: swap the entries in positions i and i+1."""
    line = list(w.one_line)
    line[i - 1], line[i] = line[i], line[i - 1]
    return Permutation(tuple(line))


def left_mult_gen(w: Permutation, i: int) -> Permutation:
    """s_i * w: swap the values i and i+1."""
    line = list(w.one_line)
    a, b = line.index(i), line.index(i + 1)
    line[a], line[b] = line[b], line[a]
    return Permutation(tuple(line))


def coxeter_pop_by_longest_parabolic(w: Permutation) -> Permutation:
    """The Coxeter pop as defined, w * w0(DesR(w)). The longest element
    w0(J) of the parabolic subgroup generated by J is reached by climbing
    from the identity along a generator of J that is not yet a right
    descent, until every generator of J is one; the product composes
    one-line tuples, (u * v)(i) = u(v(i))."""
    gens = right_descents(w)
    w0 = identity(w.m)
    while climb := sorted(gens - right_descents(w0)):
        w0 = right_mult_gen(w0, climb[0])
    return Permutation(tuple(w.one_line[j - 1] for j in w0.one_line))


def key_map_by_filter(family: DemazureFamily, v: int) -> Permutation:
    """Bruhat-order minimum of the quotient elements whose subset contains v,
    one vertex at a time."""
    candidates = [w for w, bits in family.members.items() if bits >> v & 1]
    if not candidates:
        raise NonUniqueMinimum(f"vertex {v} belongs to no family member")
    best = candidates[0]  # family.members is listed by length
    for w in candidates[1:]:
        if not bruhat_leq(best, w):
            raise NonUniqueMinimum(f"vertex {v}: {best} and {w} are incomparable")
    return best


def right_key_content(rows, n: int) -> tuple[int, ...]:
    """The content of the right key K_+(T) of the tableau T with these rows
    (top row first, entries in [1, n+1]): entry i-1 counts the i's.

    K_+(T) is the key tableau of Lascoux and Schützenberger ("Keys &
    standard bases", 1990): T lies in the Demazure crystal B_w(λ) iff
    K_+(T) is at most the key of w·λ, so the key w of T's vertex, taken in
    W^J, has content(K_+(T)) = w·λ. It is computed from T alone by the
    scanning method of Willis ("A direct way to find the right key of a
    semistandard Young tableau", Ann. Comb. 17, 2013), in this form: column
    j of K_+(T) has one entry per entry of column j of T. The entries of
    column j are scanned bottom-up. Each starts a path at its own value x
    and moves right through every later column in turn; in each, it takes
    the largest entry that is at least x and that no earlier path from
    column j has taken, and that entry becomes x; a column with no such
    entry is passed with x kept. The path's value after the last column is
    its entry of K_+(T). The last column of T is its own."""
    columns = [[row[c] for row in rows if c < len(row)] for c in range(len(rows[0]))]
    content = [0] * (n + 1)
    for j, column in enumerate(columns):
        free = [list(later) for later in columns[j + 1:]]  # not yet taken from column j
        for x in reversed(column):
            for entries in free:
                if fits := [y for y in entries if y >= x]:
                    x = max(fits)
                    entries.remove(x)
            content[x - 1] += 1
    return tuple(content)


def closure_by_frontier(succ, bits: int, i: int) -> int:
    """Close a vertex bitset under F_i by popping the lowest vertex of a
    frontier bitset until it is empty, adding each new F_i target."""
    frontier = bits
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        w = succ[v][i - 1]
        if w is not None and not bits >> w & 1:
            bits |= 1 << w
            frontier |= 1 << w
    return bits


def build_demazure_family_by_all_covers(graph: CrystalGraph) -> DemazureFamily:
    """The closure family with every lower cover w s_i of each member closed
    under F_i and reflected by S_i; the subsets and reflected vertices of all
    covers must agree, and a mismatch raises InconsistentFamily."""
    order = parabolic_quotient(stabilizer_colors(graph.shape), graph.n + 1)
    index = {w.one_line: k for k, w in enumerate(order)}
    found = [(1 << 0, 0)]  # (subset, u_w) in quotient order, the identity's first
    for w in order[1:]:
        line, value = w.one_line, None
        for i in range(1, len(line)):
            if line[i - 1] > line[i]:
                bits, u = found[index[line[:i - 1] + (line[i], line[i - 1]) + line[i + 1:]]]
                cover = (key._closure(graph.succ, bits, i), weyl_reflect(graph, u, i))
                if value is None:
                    value = cover
                elif value != cover:
                    raise InconsistentFamily(f"cover paths disagree at {w} (color {i})")
        found.append(value)
    members, extremal = zip(*found)
    return DemazureFamily(members=dict(zip(order, members)), extremal=dict(zip(order, extremal)))


def verify_key_properties_by_edges(graph: CrystalGraph, kappa: list[Permutation]) -> CheckReport:
    """The key-property suite with one weak_leq call per edge."""
    e = identity(graph.n + 1)
    descent_sets = {w: right_descents(w) for w in set(kappa)}
    violations = []
    checked = 0
    for v in range(graph.num_vertices):
        descents = descent_sets[kappa[v]]
        for i in range(1, graph.n + 1):
            has_up = graph.succ[v][i - 1] is not None
            has_down = graph.pred[v][i - 1] is not None
            if has_up:
                w = graph.succ[v][i - 1]
                checked += 1
                if has_down:
                    if kappa[w] != kappa[v]:
                        violations.append(
                            f"interior of an {i}-chain moved the key at vertex {v}"
                        )
                else:
                    if kappa[w] not in (kappa[v], right_mult_gen(kappa[v], i)):
                        violations.append(
                            f"bottom of an {i}-chain: key of F_{i}({v}) is neither "
                            f"kappa(v) nor kappa(v)s_{i}"
                        )
            checked += 1
            if i in descents and not has_down:
                violations.append(
                    f"descent {i} of the key of vertex {v} without an incoming edge"
                )
        checked += 1
        if kappa[v] == e and v != 0:
            violations.append(f"identity key at non-minimal vertex {v}")
    for src, dst, _ in graph.edges():
        checked += 1
        if not weak_leq(kappa[src], kappa[dst]):
            violations.append(f"order preservation fails on edge {src} -> {dst}")
    return CheckReport(checked=checked, violations=violations)


def verify_pop_key_inequality_by_vertices(graph: CrystalGraph,
                                          kappa: list[Permutation]) -> CheckReport:
    """The pop/key inequality with one weak_leq call per vertex."""
    violations = []
    checked = 0
    for v in range(graph.num_vertices):
        checked += 1
        if not weak_leq(kappa[pop_crystal(graph, v)], coxeter_pop(kappa[v])):
            violations.append(f"pop/key inequality fails at vertex {v}")
    return CheckReport(checked=checked, violations=violations)


def min_coset_rep_by_descents(w: Permutation, gens) -> Permutation:
    """Minimum-length representative of the left coset W_J w: strip left
    descents lying in J until none is left."""
    cur = w
    changed = True
    while changed:
        changed = False
        for i in gens:
            if i in left_descents(cur):
                cur = left_mult_gen(cur, i)
                changed = True
    return cur


def min_coset_line(line: tuple[int, ...], gens) -> tuple[int, ...]:
    """min_coset_rep on a one-line tuple. W_J acts on values and permutes
    each block {i, ..., k+1}, for a maximal run i..k of generators in J,
    freely: the representative numbers each block's values in order of
    position. Generators outside [1, m-1] are ignored."""
    m = len(line)
    block = list(range(m + 1))  # block[a] = the smallest value in a's block
    for i in sorted(gens):
        if 0 < i < m:
            block[i + 1] = block[i]
    nxt = list(range(m + 1))  # nxt[b] = the next value block b hands out
    out = []
    for a in line:
        b = block[a]
        out.append(nxt[b])
        nxt[b] += 1
    return tuple(out)


def min_coset_rep(w: Permutation, gens) -> Permutation:
    """Minimum-length representative of the left coset W_J w."""
    return Permutation(min_coset_line(w.one_line, gens))


def coset_rep_tables_by_rewrite(lines: list[tuple[int, ...]], line_rep=min_coset_line):
    """coset_rep_tables by rewriting one-line tuples: for J' = J - {max J},
    rep_J = rep_J o rep_J', with line_rep run on each distinct value of the
    table for J' and its result looked up in the index of lines. The empty
    J's parent is the identity, so line_rep runs on all of S_m there."""
    index = {line: i for i, line in enumerate(lines)}
    m = len(lines[0])
    level = {(): range(len(lines))}
    for r in range(m):
        below, level = level, {}
        for c in itertools.combinations(range(1, m), r):
            parent = below[c[:-1]]
            j = frozenset(c)
            image = {x: index[line_rep(lines[x], j)] for x in set(parent)}
            rep = list(map(image.__getitem__, parent))
            if not c or c[-1] < m - 1:
                level[c] = rep
            yield j, rep


def verify_section3_lemmas_by_pairs(m: int) -> CheckReport:
    """The lemma suite by an all-pairs scan: the weak pairs are listed with
    m!^2 weak_leq calls and every pair and coset representative is looked
    up by Permutation."""
    if m < 1:
        raise ValueError(f"the lemma suite needs m >= 1, got {m}")
    perms = list(all_permutations(m))
    gens = list(range(1, m))
    subsets = [
        frozenset(c)
        for r in range(m)
        for c in itertools.combinations(gens, r)
    ]
    pop = {w: coxeter_pop(w) for w in perms}
    violations = []
    checked = 0

    weak_pairs = [
        (y, z) for y in perms for z in perms if weak_leq(y, z)
    ]
    for j in subsets:
        rep = {w: min_coset_rep(w, j) for w in perms}
        for y, z in weak_pairs:
            checked += 1
            if not weak_leq(rep[y], rep[z]):
                violations.append(f"quotient monotonicity fails: J={set(j)} y={y} z={z}")
        for w in perms:
            checked += 1
            if not weak_leq(rep[pop[w]], pop[rep[w]]):
                violations.append(f"pop/quotient exchange fails: J={set(j)} w={w}")

    commuting = [y for y in perms if descents_commute(y)]
    for y in commuting:
        py = pop[y]
        for x in perms:
            if bruhat_leq(x, y):
                checked += 1
                if not bruhat_leq(pop[x], py):
                    violations.append(f"Bruhat pop monotonicity fails: x={x} y={y}")

    full = frozenset(gens)
    for s in gens:
        j = full - {s}
        w = min_coset_rep(longest_element(m), j)
        trajectory = [w]
        while length(trajectory[-1]) > 0 and len(trajectory) <= m:
            trajectory.append(coxeter_pop(trajectory[-1]))
        checked += 1
        steps = len(trajectory) - 1 if length(trajectory[-1]) == 0 else f"over {m}"
        if steps != m - 1:
            violations.append(
                f"sorting time of quotient-maximal element is {steps}, "
                f"expected {m - 1} (s={s})"
            )
        for v in trajectory:
            checked += 1
            if not descents_commute(v):
                violations.append(f"non-commuting descents along orbit of s={s}: {v}")
    return CheckReport(checked=checked, violations=violations)


# The dataclass each record class of crystalpop replaced, with its name,
# fields and flags and nothing else: no __post_init__ check and no methods.
DATACLASS_TWINS = {
    Partition: make_dataclass("Partition", ["parts", "n"], frozen=True, order=True),
    Tableau: make_dataclass("Tableau", ["shape", "rows"], frozen=True, order=True),
    Permutation: make_dataclass("Permutation", ["one_line"], frozen=True, order=True),
    CheckReport: make_dataclass("CheckReport", ["checked", "violations"]),
    DualCrystal: make_dataclass("DualCrystal", ["graph", "to_dual"], frozen=True),
    BowtieCertificate: make_dataclass("BowtieCertificate", ["t1", "t2", "u1", "u2"],
                                      frozen=True),
    OrbitReport: make_dataclass("OrbitReport", ["trajectory"], frozen=True),
    DemazureFamily: make_dataclass("DemazureFamily", ["members", "extremal"]),
    Classification: make_dataclass(
        "Classification", ["shape", "is_lattice_predicted", "matched_clause"], frozen=True),
    SweepRow: make_dataclass("SweepRow", [
        "parts", "n", "predicted", "clause", "brute_force", "vertices", "millis",
        ("skipped", bool, field(default=False))]),
    SweepReport: make_dataclass("SweepReport", ["rows"]),
}
