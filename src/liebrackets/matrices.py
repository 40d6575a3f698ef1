"""Dense exact linear algebra over the rationals.

Everything here is a pure function of immutable values: ``Matrix`` holds a
tuple-of-tuples of exact scalars, and the row-reduction routines return new
matrices together with the invertible transforms that witness them.  The
two-sided factorization ``M = Q * D_r * P`` (``D_r`` the rank normal form,
``Q`` and ``P`` invertible) is the workhorse behind every equivalence and
classification computation in the package.

All elimination goes through one kernel, ``_eliminate``: Gauss-Jordan on
integer rows (denominators cleared, each updated row divided by its gcd),
normalised to the canonical reduced rows at the end.  Pivots are searched
only in the first ``pivot_cols`` columns.  ``rref`` runs it on ``[m | I]``
and reads the transform off the identity block; ``rank``, ``kernel``,
``solve_coordinates`` and ``Subspace`` run it on the rows alone.

Denominators are cleared by one helper, ``_integer_row``, which returns a
row scaled to integers and the scale.  Besides the kernel, ``Matrix @``
uses it on each row of the left factor and each column of the right one,
so every entry of a product is one integer dot product followed by at most
one exact division (a zero row of the left factor gives a zero row without
any); ``algebra`` uses it to scale linear maps and coordinate vectors to
integers.  Products, sums, differences and scalar multiples come back
canonical: ``int`` when integral.

Text format for matrices: rows separated by ``;``, entries by whitespace,
entries as integers or ``p/q``, e.g. ``"1 0; 0 1/2"``.  JSON format:
``{"rows": n, "cols": m, "entries": [["p/q", ...], ...]}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .scalars import Scalar, scalar_div, scalar_str, to_scalar


class ShapeError(ValueError):
    """Raised when operands have incompatible or invalid shapes."""


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is not.

    Carries the actual ``rank`` of the offending matrix.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class Matrix:
    """An immutable dense matrix of exact rational scalars.

    Shapes are always positive in both dimensions; 0-row or 0-column
    matrices are rejected at construction.
    """

    __slots__ = ("rows", "cols", "_data", "_hash")

    def __init__(self, data: Iterable[Iterable]):
        rows = tuple(tuple(to_scalar(x) for x in row) for row in data)
        if not rows or not rows[0]:
            raise ShapeError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows: all rows must have equal length")
        self.rows = len(rows)
        self.cols = width
        self._data = rows
        self._hash = None

    @classmethod
    def _raw(cls, data: tuple) -> "Matrix":
        # Internal: entries already exact scalars, shape already consistent.
        self = object.__new__(cls)
        self.rows = len(data)
        self.cols = len(data[0])
        self._data = data
        self._hash = None
        return self

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise ShapeError(f"invalid shape {rows}x{cols}")
        return cls._raw(tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if n < 1:
            raise ShapeError(f"invalid size {n}")
        return cls._raw(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def unit(cls, rows: int, cols: int, i: int, j: int) -> "Matrix":
        """The basis matrix with a single 1 at 0-based position (i, j)."""
        if not (0 <= i < rows and 0 <= j < cols):
            raise ShapeError(f"unit position ({i}, {j}) outside {rows}x{cols}")
        return cls._raw(tuple(tuple(1 if (r, c) == (i, j) else 0 for c in range(cols)) for r in range(rows)))

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        vals = [to_scalar(v) for v in values]
        n = len(vals)
        if n < 1:
            raise ShapeError("diagonal requires at least one entry")
        return cls._raw(tuple(tuple(vals[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def column(cls, values: Sequence) -> "Matrix":
        return cls(tuple((v,) for v in values))

    @classmethod
    def from_flat(cls, rows: int, cols: int, flat: Sequence) -> "Matrix":
        flat = tuple(flat)
        if len(flat) != rows * cols:
            raise ShapeError(f"need {rows * cols} entries for {rows}x{cols}, got {len(flat)}")
        return cls(tuple(flat[r * cols : (r + 1) * cols] for r in range(rows)))

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple:
        """Row-major flat tuple of all entries."""
        return tuple(x for row in self._data for x in row)

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple:
        return self._data[i]

    def column_tuple(self, j: int) -> tuple:
        return tuple(r[j] for r in self._data)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}")
        pairs = zip(self._data, other._data)
        return Matrix._raw(_canonical(tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in pairs)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}")
        pairs = zip(self._data, other._data)
        return Matrix._raw(_canonical(tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in pairs)))

    def __neg__(self) -> "Matrix":
        # Negation keeps canonical entries canonical.
        return Matrix._raw(tuple(tuple(-x for x in r) for r in self._data))

    def __mul__(self, scalar) -> "Matrix":
        c = to_scalar(scalar)
        return Matrix._raw(_canonical(tuple(tuple(c * x for x in r) for r in self._data)))

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bcols = [_integer_row(col) for col in zip(*other._data)]
        zero = (0,) * len(bcols)
        out = []
        for row in self._data:
            arow, da = _integer_row(row)
            if not any(arow):
                out.append(zero)
                continue
            entries = []
            for bcol, db in bcols:
                s = sum(map(mul, arow, bcol))
                d = da * db
                entries.append(s if d == 1 else scalar_div(s, d))
            out.append(tuple(entries))
        return Matrix._raw(tuple(out))

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ShapeError(f"trace of non-square {self.rows}x{self.cols} matrix")
        return sum(self._data[i][i] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    def is_scalar_multiple_of_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        d = self._data[0][0]
        return all(x == (d if i == j else 0) for i, row in enumerate(self._data) for j, x in enumerate(row))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self._data))
        return self._hash

    def __str__(self) -> str:
        return format_matrix(self)

    def __repr__(self) -> str:
        return f"Matrix({format_matrix(self)!r})"


def parse_matrix(text: str) -> Matrix:
    """Parse the ``"1 0; 0 1/2"`` text format."""
    rows = [r for r in (part.strip() for part in text.split(";")) if r]
    if not rows:
        raise ShapeError(f"empty matrix text: {text!r}")
    return Matrix(tuple(tuple(tok for tok in row.split()) for row in rows))


def format_matrix(m: Matrix) -> str:
    return "; ".join(" ".join(scalar_str(x) for x in row) for row in m._data)


def matrix_to_json(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[scalar_str(x) for x in row] for row in m._data],
    }


def matrix_from_json(obj: dict) -> Matrix:
    m = Matrix(obj["entries"])
    if m.rows != obj["rows"] or m.cols != obj["cols"]:
        raise ShapeError(
            f"declared shape {obj['rows']}x{obj['cols']} does not match entries {m.rows}x{m.cols}"
        )
    return m


class RrefResult(NamedTuple):
    reduced: Matrix
    pivots: tuple
    transform: Matrix


_INT_ONLY = frozenset((int,))


def _canonical(rows: tuple) -> tuple:
    """``rows`` with each integral ``Fraction`` replaced by its ``int``.

    A sum, difference or multiple of ``Fraction`` entries can be integral
    (``1/2 + 1/2``, ``2 * (1/2)``) or zero, and ``Fraction`` arithmetic then
    returns ``Fraction(k, 1)``.  Rows of ``int`` only come back unchanged
    after one type scan of all entries."""
    if _INT_ONLY.issuperset(map(type, chain.from_iterable(rows))):
        return rows
    return tuple(tuple(x.numerator if x.denominator == 1 else x for x in r) for r in rows)


def _integer_row(v: Sequence[Scalar]) -> tuple:
    """``(w, den)``: ``den`` is the lcm of the denominators of ``v`` and
    ``w = den * v`` has only ``int`` entries.  An all-``int`` row comes back
    as ``(v, 1)`` unchanged."""
    if _INT_ONLY.issuperset(map(type, v)):
        return v, 1
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def _eliminate(rows: Sequence[Sequence[Scalar]], pivot_cols: int) -> tuple:
    """The package's one elimination kernel: Gauss-Jordan on integer rows.

    Returns ``(reduced, pivots)``: the rows of the reduced row-echelon form,
    as tuples of canonical scalars (``int`` when integral), and the pivot
    columns.  Pivots are searched only among the first ``pivot_cols``
    columns, with the rule of ``rref``; later columns, such as an appended
    identity block, are carried along by the same row operations.

    Each row is scaled to integers by its denominators' lcm.  Eliminating
    against a pivot row ``P`` (pivot ``p``) replaces a row ``R`` whose entry
    ``f`` in the pivot column is nonzero by ``p*R - f*P`` divided by its
    gcd; a row with ``f == 0`` is left untouched.  Every row thus stays a
    nonzero rational multiple of the row that Gauss-Jordan over the
    rationals would hold, so dividing by that multiple at the end gives the
    same reduced rows.  A pivot row's multiple is its pivot entry; the
    multiples of the other rows are tracked only when there are columns past
    ``pivot_cols``, since otherwise those rows end up zero.
    """
    track = len(rows) > 0 and len(rows[0]) > pivot_cols
    a = []
    scale = []
    for row in rows:
        irow, den = _integer_row(row)
        g = gcd(*irow) or 1
        a.append(irow if g == 1 else [x // g for x in irow])
        scale.append(Fraction(den, g) if track else 1)
    n = len(a)
    pivots = []
    prow = 0
    for col in range(pivot_cols):
        pr = next((r for r in range(prow, n) if a[r][col]), None)
        if pr is None:
            continue
        if pr != prow:
            a[prow], a[pr] = a[pr], a[prow]
            scale[prow], scale[pr] = scale[pr], scale[prow]
        piv = a[prow]
        pv = piv[col]
        for r in range(n):
            f = a[r][col]
            if f == 0 or r == prow:
                continue
            row = [pv * x - f * y for x, y in zip(a[r], piv)]
            g = gcd(*row) or 1
            a[r] = row if g == 1 else [x // g for x in row]
            if track:
                scale[r] = Fraction(scale[r] * pv, g)
        pivots.append(col)
        prow += 1
        if prow == n:
            break
    reduced = []
    for i, row in enumerate(a):
        d = row[pivots[i]] if i < prow else scale[i]
        reduced.append(tuple(row) if d == 1 else tuple(scalar_div(x, d) if x else 0 for x in row))
    return tuple(reduced), tuple(pivots)


def rref(m: Matrix) -> RrefResult:
    """Reduced row-echelon form with the invertible transform that produced it.

    Returns ``(reduced, pivots, transform)`` with ``transform @ m == reduced``.
    Pivot choice is deterministic: first nonzero entry scanning top-to-bottom
    within each column, columns left-to-right.  The transform is read off
    the identity block of ``[m | I]``, eliminated by ``_eliminate`` with
    pivots confined to the columns of ``m``; callers that only need the
    reduced rows call ``_eliminate`` on ``m`` itself.
    """
    w = m.cols
    unit = tuple(tuple(1 if i == j else 0 for j in range(m.rows)) for i in range(m.rows))
    rows, pivots = _eliminate([row + e for row, e in zip(m._data, unit)], w)
    return RrefResult(
        Matrix._raw(tuple(r[:w] for r in rows)), pivots, Matrix._raw(tuple(r[w:] for r in rows))
    )


def rank(m: Matrix) -> int:
    return len(_eliminate(m._data, m.cols)[1])


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ShapeError(f"cannot invert non-square {m.rows}x{m.cols} matrix")
    reduced, pivots, transform = rref(m)
    if len(pivots) < m.rows:
        raise SingularMatrixError(
            f"matrix of rank {len(pivots)} < {m.rows} is singular", rank=len(pivots)
        )
    return transform


def kernel(m: Matrix) -> "Subspace":
    """Basis of the right null space, as column vectors in canonical form."""
    reduced, pivots = _eliminate(m._data, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(Matrix._raw(tuple((x,) for x in v)))
    # Independent by construction, but not in echelon form: that is left to
    # ``_echelon_rows``, for the few callers that need it.
    return Subspace._trusted(m.cols, 1, tuple(basis), None)


def rank_normal_form(rows: int, cols: int, r: int) -> Matrix:
    """The rows x cols matrix with the identity of size ``r`` in the top-left
    corner and zeros elsewhere (``r = 0`` gives the zero matrix)."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"invalid shape {rows}x{cols}")
    if not (0 <= r <= min(rows, cols)):
        raise ShapeError(f"rank {r} out of range for {rows}x{cols}")
    return Matrix._raw(
        tuple(tuple(1 if (i == j and i < r) else 0 for j in range(cols)) for i in range(rows))
    )


@dataclass(frozen=True)
class RankFactorization:
    """Invertible ``q`` (rows x rows), ``p`` (cols x cols) and ``rank`` with
    ``q @ rank_normal_form(rows, cols, rank) @ p`` equal to the input."""

    q: Matrix
    p: Matrix
    rank: int


def rank_factorization(j: Matrix) -> RankFactorization:
    """Factor ``j = q @ D_r @ p`` with ``D_r`` the rank normal form.

    Row-reduce to RREF (recording the row transform), then clear the
    non-pivot columns with column operations.  The witnesses are not unique;
    this routine is deterministic and returns identities when the input is
    already in normal form.

    With ``perm`` moving the pivot columns first, ``reduced @ perm`` is
    ``[I_r, S; 0, 0]`` and the column transform ``perm @ [I, -S; 0, I]``
    clears ``S``.  Its inverse ``[I, S; 0, I] @ perm^T`` is written down
    directly: the nonzero rows of ``reduced``, then the unit rows of the
    non-pivot columns.
    """
    reduced, pivots, transform = rref(j)
    r = len(pivots)
    if r == 0:
        return RankFactorization(Matrix.identity(j.rows), Matrix.identity(j.cols), 0)
    n = j.cols
    free_rows = tuple(tuple(1 if c == f else 0 for c in range(n)) for f in range(n) if f not in pivots)
    return RankFactorization(inverse(transform), Matrix._raw(reduced._data[:r] + free_rows), r)


def solve_coordinates(basis: Sequence[Matrix], target: Matrix) -> Optional[tuple]:
    """Coordinates of ``target`` in the span of ``basis``, or None if outside.

    All matrices must share one shape; ``basis`` must be linearly
    independent (unique coordinates).
    """
    if not basis:
        return () if target.is_zero() else None
    cols = [m.entries for m in basis]
    k = len(basis)
    reduced, pivots = _eliminate(list(zip(*cols, target.entries)), k + 1)
    if k in pivots:
        return None
    if len(pivots) != k:
        raise ValueError("basis matrices are linearly dependent")
    coords = [0] * k
    for i, p in enumerate(pivots):
        coords[p] = reduced[i][k]
    return tuple(coords)


class Subspace:
    """A linear subspace of a matrix space, given by an independent basis.

    The ambient space is ``Mat(ambient_rows x ambient_cols)``; basis members
    are matrices of that shape.  Equality means equality of spans.
    """

    __slots__ = ("ambient_rows", "ambient_cols", "basis", "_echelon")

    def __init__(self, ambient_rows: int, ambient_cols: int, basis: Iterable[Matrix]):
        basis = tuple(basis)
        if ambient_rows < 1 or ambient_cols < 1:
            raise ShapeError(f"invalid ambient shape {ambient_rows}x{ambient_cols}")
        for b in basis:
            if b.shape != (ambient_rows, ambient_cols):
                raise ShapeError(
                    f"basis matrix of shape {b.rows}x{b.cols} in ambient {ambient_rows}x{ambient_cols}"
                )
        echelon, pivots = _eliminate([b.entries for b in basis], ambient_rows * ambient_cols)
        if len(pivots) != len(basis):
            raise ValueError("basis matrices are linearly dependent")
        self.ambient_rows = ambient_rows
        self.ambient_cols = ambient_cols
        self.basis = basis
        self._echelon = echelon

    @classmethod
    def _trusted(cls, ambient_rows: int, ambient_cols: int, basis: tuple, echelon) -> "Subspace":
        # Internal: ``basis`` is independent and of the ambient shape;
        # ``echelon`` is its reduced row-echelon form, or None if not known.
        self = object.__new__(cls)
        self.ambient_rows = ambient_rows
        self.ambient_cols = ambient_cols
        self.basis = basis
        self._echelon = echelon
        return self

    @classmethod
    def _from_echelon(cls, ambient_rows: int, ambient_cols: int, rows: Sequence[tuple]) -> "Subspace":
        """Subspace whose basis is ``rows``, already reduced row-echelon rows."""
        rows = tuple(rows)
        basis = tuple(
            Matrix._raw(tuple(r[i * ambient_cols : (i + 1) * ambient_cols] for i in range(ambient_rows)))
            for r in rows
        )
        return cls._trusted(ambient_rows, ambient_cols, basis, rows)

    @classmethod
    def span(cls, ambient_rows: int, ambient_cols: int, mats: Iterable[Matrix]) -> "Subspace":
        """Span of arbitrary matrices, with a canonical echelonized basis."""
        rows = [m.entries for m in mats if not m.is_zero()]
        if not rows:
            return cls(ambient_rows, ambient_cols, ())
        reduced, pivots = _eliminate(rows, ambient_rows * ambient_cols)
        return cls._from_echelon(ambient_rows, ambient_cols, reduced[: len(pivots)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _echelon_rows(self) -> tuple:
        if self._echelon is None:
            rows = [b.entries for b in self.basis]
            self._echelon = _eliminate(rows, self.ambient_rows * self.ambient_cols)[0]
        return self._echelon

    def contains(self, mat: Matrix) -> bool:
        return self.reduce(mat).is_zero()

    def reduce(self, mat: Matrix) -> Matrix:
        """Residual of ``mat`` after elimination against the span (zero iff contained)."""
        if mat.shape != (self.ambient_rows, self.ambient_cols):
            raise ShapeError(
                f"matrix of shape {mat.rows}x{mat.cols} vs ambient {self.ambient_rows}x{self.ambient_cols}"
            )
        v = list(mat.entries)
        for row in self._echelon_rows():
            lead = next(i for i, x in enumerate(row) if x != 0)
            f = v[lead]
            if f != 0:
                v = [x - f * y for x, y in zip(v, row)]
        return Matrix.from_flat(self.ambient_rows, self.ambient_cols, v)

    def intersection(self, other: "Subspace") -> "Subspace":
        if (self.ambient_rows, self.ambient_cols) != (other.ambient_rows, other.ambient_cols):
            raise ShapeError("subspaces live in different ambient spaces")
        if not self.basis or not other.basis:
            return Subspace(self.ambient_rows, self.ambient_cols, ())
        cols = [b.entries for b in self.basis] + [tuple(-x for x in b.entries) for b in other.basis]
        ker = kernel(Matrix(tuple(zip(*cols))))
        mats = []
        for kvec in ker.basis:
            combo = Matrix.zeros(self.ambient_rows, self.ambient_cols)
            for a, b in zip(kvec.column_tuple(0)[: self.dim], self.basis):
                if a != 0:
                    combo = combo + a * b
            mats.append(combo)
        return Subspace.span(self.ambient_rows, self.ambient_cols, mats)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            (self.ambient_rows, self.ambient_cols) == (other.ambient_rows, other.ambient_cols)
            and self._echelon_rows() == other._echelon_rows()
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_rows}x{self.ambient_cols})"


def join_blocks(blocks, rows: int, cols: int, r: int) -> Matrix:
    """Reassemble (top-left, bottom-left, top-right, bottom-right) split at ``r``."""
    tl, bl, tr, br = blocks
    out = [[0] * cols for _ in range(rows)]
    for block, r0, c0 in ((tl, 0, 0), (bl, r, 0), (tr, 0, r), (br, r, r)):
        if block is None:
            continue
        for i, row in enumerate(block._data):
            out[r0 + i][c0 : c0 + block.cols] = row
    return Matrix._raw(tuple(map(tuple, out)))

