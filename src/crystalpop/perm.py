"""Symmetric-group machinery: weak and Bruhat orders, descents, parabolic
quotients, the longest element and the Coxeter pop.

A permutation of [m] is stored in one-line notation. Generators are named
by their index: i stands for the adjacent transposition swapping i and i+1,
so generator subsets are sets of integers in [1, m-1].

The order tests read two invariants that each Permutation computes once:

- The inversion bitmask has one bit per value pair a < b in which b stands
  before a. The length is its popcount, and the right weak order is
  containment of these inversion sets: u <= w iff Inv(u) is a subset of
  Inv(w) (Bjorner and Brenti, *Combinatorics of Coxeter Groups*,
  Prop. 3.1.3).
- The Bruhat rank array r[i, j] = #{a <= i : w(a) >= j}. By the tableau
  criterion (ibid., Thm. 2.1.5), u <= w in Bruhat order iff
  r_u[i, j] <= r_w[i, j] for all i, j. Each entry is stored in unary, so
  the entrywise comparison is one bitwise containment test as well.

The exhaustive lemma suite works on one-line tuples indexed in
lexicographic order. Weak-order monotonicity is tested on covers only (a
map preserves the order iff it preserves every cover), with the coset
representatives of each generator subset gathered from those of its
parent subset. Sets of permutations are ints with one bit per permutation,
and for each bit b of an invariant the suite keeps the set of permutations
having b: the weak up-set of y is the AND of those sets over the
inversions of y, and the Bruhat lower set of y the complement of their OR
over the rank bits y lacks. Up-sets are built one at a time and dropped,
so no m!^2/8-byte table is kept; the cover tests grow as 2^(m-2) (m-1) m!,
and the suite stops at MAX_LEMMA_M, the largest size measured.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

MAX_LEMMA_M = 8


@dataclass(frozen=True, order=True)
class Permutation:
    one_line: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.one_line) != list(range(1, len(self.one_line) + 1)):
            raise ValueError(f"not a permutation of [m]: {self.one_line}")

    @property
    def m(self) -> int:
        return len(self.one_line)

    def right_mult_gen(self, i: int) -> "Permutation":
        """self * s_i: swap the entries in positions i and i+1."""
        w = list(self.one_line)
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(tuple(w))

    @cached_property
    def inversion_mask(self) -> int:
        """Bit (a-1)*m + (b-1) is set iff a < b and b stands before a."""
        line = self.one_line
        m = len(line)
        mask = 0
        for pos, b in enumerate(line):
            for a in line[pos + 1:]:
                if a < b:
                    mask |= 1 << ((a - 1) * m + b - 1)
        return mask

    @cached_property
    def bruhat_ranks(self) -> int:
        """The rank array r[i, j] for 1 <= i < m and 2 <= j <= m (the rows
        i = m and the column j = 1 are the same for every permutation).
        Each entry gets a field of m-1 bits whose lowest r[i, j] bits are
        set, so that entrywise <= is bitwise containment."""
        line = self.one_line
        m = len(line)
        counts = [0] * (m + 1)
        packed = 0
        for v in line[:-1]:
            for j in range(2, v + 1):
                counts[j] += 1
            for c in counts[2:]:
                packed = packed << (m - 1) | (1 << c) - 1
        return packed

    def __str__(self):
        if self.m <= 9:
            return "".join(str(v) for v in self.one_line)
        return ",".join(str(v) for v in self.one_line)


def identity(m: int) -> Permutation:
    return Permutation(tuple(range(1, m + 1)))


def parse_permutation(text: str) -> Permutation:
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        return Permutation(tuple(int(tok) for tok in text.split(",")))
    return Permutation(tuple(int(ch) for ch in text))


def all_permutations(m: int):
    """All of S_m in lexicographic one-line order."""
    for word in itertools.permutations(range(1, m + 1)):
        yield Permutation(word)


def length(w: Permutation) -> int:
    """Coxeter length = inversion count."""
    return w.inversion_mask.bit_count()


def right_descents(w: Permutation) -> frozenset[int]:
    line = w.one_line
    return frozenset(i for i in range(1, len(line)) if line[i - 1] > line[i])


def weak_leq(u: Permutation, w: Permutation) -> bool:
    """Right weak order: u <= w iff Inv(u) is contained in Inv(w)."""
    if len(u.one_line) != len(w.one_line):
        raise ValueError("permutations act on different sets")
    return not u.inversion_mask & ~w.inversion_mask


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order: the rank array of u is entrywise at most that of w."""
    if len(u.one_line) != len(w.one_line):
        raise ValueError("permutations act on different sets")
    return not u.bruhat_ranks & ~w.bruhat_ranks


def longest_element(m: int) -> Permutation:
    return Permutation(tuple(range(m, 0, -1)))


def min_coset_line(line: tuple[int, ...], gens: frozenset[int] | set[int]) -> tuple[int, ...]:
    """min_coset_rep on a one-line tuple, with no Permutation built."""
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


def min_coset_rep(w: Permutation, gens: frozenset[int] | set[int]) -> Permutation:
    """Minimum-length representative of the left coset W_J w. W_J acts on
    values and permutes each block {i, ..., k+1}, for a maximal run i..k of
    generators in J, freely: the representative writes each block's values
    in increasing order of position. Generators outside [1, m-1] are ignored."""
    return Permutation(min_coset_line(w.one_line, gens))


def parabolic_quotient(gens: frozenset[int] | set[int], m: int) -> list[Permutation]:
    """All w in S_m with left descents avoiding the generator set, listed in
    BFS layers of the right weak order (by length, then one-line order),
    climbed from the identity: w * s_i swaps an ascent a = w(i) < w(i+1) = b
    and adds the left descent a iff b = a+1. Left descents only grow going
    up, so the quotient is a lower set and the climb reaches all of it.
    Generators outside [1, m-1] are ignored."""
    layers = [[tuple(range(1, m + 1))]]
    while layers[-1]:
        above = set()
        for line in layers[-1]:
            for i in range(1, m):
                a, b = line[i - 1], line[i]
                if a < b and not (b == a + 1 and a in gens):
                    above.add(line[:i - 1] + (b, a) + line[i + 1:])
        layers.append(sorted(above))
    return [Permutation(line) for layer in layers for line in layer]


def coxeter_pop(w: Permutation) -> Permutation:
    """w * w0(DesR(w)), with w0(J) the longest element of the parabolic
    subgroup generated by J. A maximal run i..k of consecutive right
    descents is a maximal descending run w(i) > ... > w(k+1), and the right
    factor w0(J) reverses positions i..k+1, so the product is: reverse each
    maximal descending run."""
    line = w.one_line
    out = []
    start = 0
    for k in range(1, len(line) + 1):
        if k == len(line) or line[k - 1] < line[k]:
            out.extend(reversed(line[start:k]))
            start = k
    return Permutation(tuple(out))


def descents_commute(w: Permutation) -> bool:
    """True iff no two right descents are adjacent (no double descent)."""
    desc = right_descents(w)
    return all(i + 1 not in desc for i in desc)


@dataclass
class CheckReport:
    """Outcome of a property suite: how many checks ran and what failed."""

    checked: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _set_bits(v: int) -> list[int]:
    """The positions of the set bits of v, from low to high."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def _bit_columns(values: list[int]) -> dict[int, str]:
    """For each bit b set in some value, the string of '0'/'1' characters
    whose i-th character is bit b of values[i]."""
    width = max(values).bit_length()
    if not width:
        return {}
    rows = [format(v, f"0{width}b") for v in values]
    return {
        width - 1 - k: "".join(col)
        for k, col in enumerate(zip(*rows))
        if "1" in col
    }


def _bitsets(columns: dict[int, str], order: list[int] | None = None) -> dict[int, int]:
    """For each bit b, the set of i whose character columns[b][order[i]] is
    '1' (order defaults to the identity), as an int with bit i for index i."""
    if order is None:
        return {b: int(col[::-1], 2) for b, col in columns.items()}
    # With one index, take returns a one-character string, which joins to itself.
    take = operator.itemgetter(*order)
    return {b: int("".join(take(col))[::-1], 2) for b, col in columns.items()}


def _having(cols: dict[int, int], packed: int, everything: int) -> int:
    """The intersection of cols[b] over the bits b of packed."""
    out = everything
    for b, col in cols.items():
        if packed >> b & 1:
            out &= col
    return out


def _lacking(cols: dict[int, int], packed: int) -> int:
    """The union of cols[b] over the bits b missing from packed."""
    out = 0
    for b, col in cols.items():
        if not packed >> b & 1:
            out |= col
    return out


def weak_covers(lines: list[tuple[int, ...]],
                index: dict[tuple[int, ...], int]) -> tuple[list[int], list[int]]:
    """The covers y < y*s_i of the right weak order, one for each ascent
    y(i) < y(i+1) (Bjorner and Brenti, Ch. 3), over all of S_m given as
    one-line tuples with their index: the list of y and the list of y*s_i,
    in order of y, then i."""
    lower, upper = [], []
    for y, line in enumerate(lines):
        for i in range(1, len(line)):
            if line[i - 1] < line[i]:
                lower.append(y)
                upper.append(index[line[:i - 1] + (line[i], line[i - 1]) + line[i + 1:]])
    return lower, upper


def coset_rep_tables(lines: list[tuple[int, ...]], index: dict[tuple[int, ...], int]):
    """Yield (J, rep) for each generator subset J of S_m, by size, then in
    lexicographic order, where rep[w] is the index of
    min_coset_line(lines[w], J) and lines is all of S_m with its index.

    For J' = J - {max J}, W_J' w lies in W_J w, so rep_J = rep_J o rep_J':
    the rewrite runs only on the distinct values of the table for J', and
    the rest is a gather. Only the previous size's tables are kept, and of
    those only the ones a larger J extends (max J' < m-1)."""
    m = len(lines[0])
    level = {(): range(len(lines))}  # the parent of the empty set
    for r in range(m):
        below, level = level, {}
        for c in itertools.combinations(range(1, m), r):
            parent = below[c[:-1]]
            j = frozenset(c)
            image = {x: index[min_coset_line(lines[x], j)] for x in set(parent)}
            rep = list(map(image.__getitem__, parent))
            if not c or c[-1] < m - 1:
                level[c] = rep
            yield j, rep


def verify_section3_lemmas(m: int) -> CheckReport:
    """Exhaustively check, over S_m, the quotient monotonicity of the weak
    order, Bruhat monotonicity of pop under commuting descents, the
    pop/quotient exchange inequality, and the sorting time of the maximal
    quotient elements (h-1 pops reach the identity, h-2 do not, and every
    intermediate element has pairwise commuting descents).

    S_m is indexed in all_permutations order, and sets of permutations are
    ints with bit i for index i.

    - Quotient monotonicity. A map between posets preserves the order iff
      it preserves every cover, so for each J the suite tests
      Inv(rep(y)) within Inv(rep(y*s_i)) over every right-weak cover (all of
      S_m, not only the quotient, and nothing assumes rep is a true coset
      representative). Only when a cover fails does it scan every y for
      that J: with A_b the permutations whose inversion mask has bit b, the
      up-set U(y) is the AND of A_b over the bits of mask(y) (Prop. 3.1.3),
      and the failures at y are the z in U(y) with Inv(rep(y)) not within
      Inv(rep(z)).
    - Bruhat order. With D_b the permutations whose rank array has bit b,
      the lower set L(y) is the complement of the OR of D_b over the bits
      missing from the rank array of y (Thm. 2.1.5). With E_b the x whose
      pop(x) has bit b, monotonicity of pop at y is L(y) & ~L_E(pop(y)) == 0,
      where L_E(p), the x with pop(x) <= p, is built from E_b as L is from D_b.

    Each pair (y, z) still counts as one check: checked adds the number of
    weak pairs per J and the sizes of the lower sets. A failing set is
    decoded from its low bit up, which is the pairwise scan's order, so
    counts and messages are those of the pairwise scan.

    The weak part makes (m-1)/2 m! cover tests per J where a pairwise scan
    makes m!^2 order tests, and the coset representatives of all 2^(m-1)
    subsets come from coset_rep_tables. Up-sets are built one at a time, so
    no table of m!-bit sets is kept outside a failing J's scan; m is
    limited to MAX_LEMMA_M, the largest size measured."""
    if m < 1:
        raise ValueError(f"the lemma suite needs m >= 1, got {m}")
    if m > MAX_LEMMA_M:
        raise ValueError(
            f"the lemma suite needs m <= {MAX_LEMMA_M}, got {m}: it makes "
            f"2^(m-2) (m-1) m! weak-cover tests, and m = {MAX_LEMMA_M} is the "
            f"largest size measured"
        )
    lines, popped, masks, ranks, commuting = [], [], [], [], []
    for w in all_permutations(m):
        lines.append(w.one_line)
        popped.append(coxeter_pop(w).one_line)
        masks.append(w.inversion_mask)
        ranks.append(w.bruhat_ranks)
        commuting.append(descents_commute(w))
    index = {line: i for i, line in enumerate(lines)}
    pop = list(map(index.__getitem__, popped))
    everything = (1 << len(lines)) - 1
    outside = [~mask for mask in masks]
    violations = []
    checked = 0

    mask_cols = _bitsets(_bit_columns(masks))
    # one up-set at a time, each dropped once counted
    weak_pairs = sum(_having(mask_cols, mask, everything).bit_count() for mask in masks)
    lower, upper = weak_covers(lines, index)
    for j, rep in coset_rep_tables(lines, index):
        checked += weak_pairs
        held = list(map(masks.__getitem__, rep))  # Inv(rep(y))
        missed = list(map(outside.__getitem__, rep))  # ~Inv(rep(y))
        if any(map(operator.and_, map(held.__getitem__, lower), map(missed.__getitem__, upper))):
            for y, mask in enumerate(masks):
                for z in _set_bits(_having(mask_cols, mask, everything)):
                    if held[y] & missed[z]:
                        violations.append(
                            f"quotient monotonicity fails: J={set(j)} "
                            f"y={Permutation(lines[y])} z={Permutation(lines[z])}"
                        )
        # Inv(rep(pop(w))) within Inv(pop(rep(w))), for each w
        exchange = list(map(operator.and_, map(held.__getitem__, pop),
                            map(outside.__getitem__, map(pop.__getitem__, rep))))
        checked += len(exchange)
        if any(exchange):
            for w, bad in enumerate(exchange):
                if bad:
                    violations.append(
                        f"pop/quotient exchange fails: J={set(j)} w={Permutation(lines[w])}"
                    )

    bruhat_columns = _bit_columns(ranks)
    rank_cols = _bitsets(bruhat_columns)
    pop_rank_cols = _bitsets(bruhat_columns, pop)
    for y, rank in enumerate(ranks):
        if not commuting[y]:
            continue
        lower_set = everything & ~_lacking(rank_cols, rank)
        checked += lower_set.bit_count()
        for x in _set_bits(lower_set & _lacking(pop_rank_cols, ranks[pop[y]])):
            violations.append(
                f"Bruhat pop monotonicity fails: "
                f"x={Permutation(lines[x])} y={Permutation(lines[y])}"
            )

    full = frozenset(range(1, m))
    for s in range(1, m):
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
