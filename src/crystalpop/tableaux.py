"""Partitions, semistandard Young tableaux and reading words.

Cells are addressed as (i, j) with 1-based row i (top to bottom) and
column j (left to right). Entries of a tableau of rank n lie in [1, n+1].
"""

from __future__ import annotations

from itertools import accumulate, chain

from .values import Ordered


class TableauError(ValueError):
    """Base class for shape/filling validation failures."""


class ShapeMismatch(TableauError):
    pass


class RowViolation(TableauError):
    def __init__(self, cell, message):
        super().__init__(f"row violation at {cell}: {message}")
        self.cell = cell


class ColumnViolation(TableauError):
    def __init__(self, cell, message):
        super().__init__(f"column violation at {cell}: {message}")
        self.cell = cell


class EntryOutOfRange(TableauError):
    def __init__(self, cell, message):
        super().__init__(f"entry out of range at {cell}: {message}")
        self.cell = cell


class Partition(Ordered):
    """A weakly decreasing tuple of positive parts together with the crystal
    rank n. Trailing zeros are stripped on construction; the same parts give
    different crystals for different n, so n travels with the shape."""

    def __init__(self, parts: tuple[int, ...], n: int):
        parts = tuple(parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        vars(self).update(parts=parts, n=n)
        if n < 1:
            raise ShapeMismatch(f"rank n must be positive, got {n}")
        if any(p <= 0 for p in parts):
            raise ShapeMismatch(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ShapeMismatch(f"parts must be weakly decreasing: {parts}")
        if len(parts) > n:
            raise ShapeMismatch(f"at most n={n} parts allowed, got {len(parts)}")

    def __len__(self):
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-based), zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def parse_partition(text: str, n: int) -> Partition:
    """Parse the "l1,l2,..." textual form."""
    text = text.strip()
    if not text:
        return Partition((), n)
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ShapeMismatch(f"bad partition {text!r}") from exc
    return Partition(parts, n)


def dual_shape(shape: Partition) -> Partition:
    """The shape of the dual crystal: pad to n+1 parts with zeros, then
    take first part minus the reversed tail."""
    n = shape.n
    first = shape.part(1)
    parts = tuple(first - shape.part(n + 2 - i) for i in range(1, n + 2))
    return Partition(parts, n)


class Tableau(Ordered):
    """Immutable semistandard filling of a partition shape."""

    def __init__(self, shape: Partition, rows: tuple[tuple[int, ...], ...]):
        vars(self).update(shape=shape, rows=rows)

    def with_entry(self, i: int, j: int, value: int) -> "Tableau":
        """Copy with one cell replaced; revalidates the filling."""
        grid = [list(row) for row in self.rows]
        grid[i - 1][j - 1] = value
        return validate_tableau(self.shape, grid)

    def __str__(self):
        return format_rows(self.rows)


def validate_tableau(shape: Partition, grid) -> Tableau:
    """Check a row-major grid against the semistandard conditions for the
    given shape and rank, returning the validated tableau."""
    rows = tuple(tuple(row) for row in grid)
    if len(rows) != len(shape.parts) or any(
        len(rows[i]) != shape.parts[i] for i in range(len(rows))
    ):
        raise ShapeMismatch(
            f"grid row lengths {[len(r) for r in rows]} do not match shape {shape.parts}"
        )
    bound = shape.n + 1
    for i, row in enumerate(rows, start=1):
        for j, val in enumerate(row, start=1):
            if not 1 <= val <= bound:
                raise EntryOutOfRange((i, j), f"{val} not in [1, {bound}]")
            if j > 1 and row[j - 2] > val:
                raise RowViolation((i, j), f"{row[j - 2]} > {val}")
            if i > 1 and j <= len(rows[i - 2]) and rows[i - 2][j - 1] >= val:
                raise ColumnViolation((i, j), f"{rows[i - 2][j - 1]} >= {val}")
    return Tableau(shape, rows)


def highest_weight_tableau(shape: Partition) -> Tableau:
    """The minimal element: row i filled with the entry i."""
    return Tableau(shape, tuple((i,) * width for i, width in enumerate(shape.parts, start=1)))


def reading_cells(shape: Partition) -> list[tuple[int, int]]:
    """Cells in reading order: rows bottom to top, each left to right."""
    return [(i, j) for i in range(len(shape.parts), 0, -1)
            for j in range(1, shape.parts[i - 1] + 1)]


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Entries read row by row from the bottom row up."""
    return tuple(chain.from_iterable(reversed(t.rows)))


def row_slices(shape: Partition) -> list[slice]:
    """The reading-word slice of each row, top row first (it is read last):
    word[row_slices(shape)[i - 1]] is row i."""
    ends = list(accumulate(reversed(shape.parts), initial=0))[::-1]
    return [slice(lo, hi) for hi, lo in zip(ends, ends[1:])]


def format_rows(rows) -> str:
    """Canonical text of a tableau's rows: rows joined by '/', entries by ','."""
    return "/".join(",".join(map(str, row)) for row in rows)


def parse_tableau(text: str, n: int) -> Tableau:
    """Parse the canonical "1,1,2/3"-style form and validate it."""
    try:
        grid = [[int(tok) for tok in row.split(",")] for row in text.strip().split("/")]
    except ValueError as exc:
        raise ShapeMismatch(f"bad tableau {text!r}") from exc
    shape = Partition(tuple(len(row) for row in grid), n)
    return validate_tableau(shape, grid)


def hook_content_count(shape: Partition) -> int:
    """Number of semistandard tableaux of this shape with entries at most
    n+1, by Weyl's dimension formula (Fulton and Harris, *Representation
    Theory*, Thm. 6.3): the product of (l_i - l_j + j - i) / (j - i) over
    1 <= i < j <= n+1, l the parts padded with zeros, not one factor per
    cell. It is taken one j at a time, and each step is exact: the first j
    parts give the dimension for GL_j, an integer. A pair of equal parts
    gives the factor 1 and is skipped, so no product spans all O(n^2) pairs."""
    parts = [shape.part(i) for i in range(1, shape.n + 2)]
    count = 1
    for j, low in enumerate(parts):
        num = den = 1
        for i, high in enumerate(parts[:j]):
            if high != low:
                num *= high - low + j - i
                den *= j - i
        count, rem = divmod(count * num, den)
        if rem:
            raise ArithmeticError("Weyl dimension product is not integral")
    return count
