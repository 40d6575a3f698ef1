"""Exact linear algebra over the rationals: dense matrices, sparse elimination.

``Matrix`` holds a tuple-of-tuples of exact scalars and every operation
returns a new canonical value (``int`` when integral; ``_canonical``).
Spans and ranks are taken on sparse integer rows ``{column: int}``: a span
by ``_echelon``, a count by ``_rank``, a null space by ``_null_rows``, and
the transform of ``rref`` by ``_gauss_jordan``.  A dense row enters through
``_sparse_row``, and ``_integer_row`` clears denominators.  The factors of
the rank classification are ``_rref_factors`` (two parameters of one rank)
and ``_normal_form_factors`` (a parameter and its normal form), both read
off ``_rref_rows``, which a ``Matrix`` runs once and keeps.
``_factor_check`` proves the factors of a pair, or the
``_identity_factors`` of two equal parameters, and
``_normal_form_transport`` proves a parameter's factors to its normal form
by the null-block lemma.

Text format for matrices: rows separated by ``;``, entries by whitespace,
entries as integers or ``p/q``, e.g. ``"1 0; 0 1/2"``.  JSON format:
``{"rows": n, "cols": m, "entries": [["p/q", ...], ...]}``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, NamedTuple, Sequence

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

    __slots__ = ("rows", "cols", "_data", "_hash", "_rref")

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
        self._rref = None

    @classmethod
    def _raw(cls, data: tuple) -> "Matrix":
        # Internal: entries already exact scalars, shape already consistent.
        self = object.__new__(cls)
        self.rows = len(data)
        self.cols = len(data[0])
        self._data = data
        self._hash = None
        self._rref = None
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
        return rank_normal_form(n, n, n)

    @classmethod
    def unit(cls, rows: int, cols: int, i: int, j: int) -> "Matrix":
        """The basis matrix with a single 1 at 0-based position (i, j)."""
        if not (0 <= i < rows and 0 <= j < cols):
            raise ShapeError(f"unit position ({i}, {j}) outside {rows}x{cols}")
        zero = (0,) * cols
        one = zero[:j] + (1,) + zero[j + 1 :]
        return cls._raw(tuple(one if r == i else zero for r in range(rows)))

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


def matrix_from_json(obj) -> Matrix:
    """The inverse of ``matrix_to_json``, and the one reader of the JSON
    matrix format.  It refuses an object whose ``entries`` is not a list of
    rows, whose ``rows`` or ``cols`` is not a JSON integer, that holds an
    entry other than an integer or a rational string, or whose declared
    shape is not that of its entries."""
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ValueError('a JSON matrix must be an object whose "entries" is a list of rows')
    # JSON reads true as a bool, an int subclass; it is no size and no entry here.
    if type(obj.get("rows")) is not int or type(obj.get("cols")) is not int:
        raise ValueError('a JSON matrix must give "rows" and "cols" as integers')
    if not all(type(x) is int or isinstance(x, str) for row in entries for x in row):
        raise ValueError("a JSON matrix entry must be an integer or a rational string")
    m = Matrix(entries)
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


def _sparse_row(v: Sequence[Scalar]) -> dict:
    """The kernel's one dense boundary: the nonzero entries of
    ``_integer_row(v)[0]``, the row ``v`` scaled to integers, as the sparse
    row ``{column: int}`` that ``_echelon`` reads."""
    return {c: x for c, x in enumerate(_integer_row(v)[0]) if x}


def _add_multiple(v: dict, f: Scalar, row: dict) -> None:
    """``v += f * row`` on sparse rows, for ``f != 0``: an entry that
    becomes zero is removed, so ``v`` keeps only nonzero entries."""
    for k, y in row.items():
        x = v.get(k, 0) + f * y
        if x:
            v[k] = x
        else:
            del v[k]


def _eliminate(rows: Sequence[Sequence[Scalar]]) -> tuple:
    """The reduced row-echelon basis of the span of the dense rows ``rows``
    (a list or tuple of rows of one length): ``_echelon`` on their
    ``_sparse_row``, made dense by ``_reduced_rows``.

    Returns ``(reduced, pivots)``: the nonzero rows of the reduced
    row-echelon form, as tuples of canonical scalars (``int`` when
    integral), and their pivot columns.  Since the reduced row-echelon form
    of a row space is unique, these are the rows Gauss-Jordan over the
    rationals would give, in any row order.
    """
    width = len(rows[0]) if rows else 0
    return _reduced_rows(_echelon(map(_sparse_row, rows), width), width)


def _reduced_rows(basis: dict, width: int) -> tuple:
    """``(reduced, pivots)`` of an ``_echelon`` basis: each row divided by its
    pivot entry and written out densely, as canonical tuples of length
    ``width``, in the order of the pivots."""
    pivots = sorted(basis)
    reduced = []
    for c in pivots:
        row = basis[c]
        d = row[c]
        out = [0] * width
        for k, x in row.items():
            out[k] = scalar_div(x, d)
        reduced.append(tuple(out))
    return tuple(reduced), tuple(pivots)


def _echelon(rows: Iterable[dict], bound: int) -> dict:
    """The span kernel: the reduced echelon basis of the span of the sparse
    integer rows ``rows``, built one row at a time.  A caller that reads
    only the rank calls ``_rank``, which skips the back-substitution.

    A sparse row is a dict ``{column: int}`` holding only its nonzero
    entries (``_sparse_row`` makes one from a dense row).  Rows are read,
    never changed, so a caller may pass dicts it keeps.  The basis is
    returned as ``{pivot column: primitive integer row}``, in the order
    built and before any division by a pivot, so its length is the rank of
    ``rows``.  Each basis row is zero in the pivot columns of the others
    and its pivot is its first column, so ``_reduced_rows`` divides it out
    into the reduced row-echelon form.

    An incoming row is reduced only at the basis pivots it touches: at
    pivot ``c`` of basis row ``P`` with entry ``f``, it becomes
    ``P[c]*v - f*P``.  As ``P`` is zero at the other pivots, this touches
    no other pivot, so the set of pivots to visit is known at the start.  A
    row left nonzero is divided by its gcd, its first column ``l`` is
    eliminated from the basis rows with a nonzero entry there (each becomes
    ``v[l]*P - P[l]*v``, kept primitive) and it joins the basis with pivot
    ``l``.

    Rows are read only until the basis holds ``bound`` rows.  The caller
    passes the dimension of a space known to hold the span (the width, at
    most): the basis then spans that whole space, so the rows left are in
    its span, and the result is the one all rows would give.
    """
    basis: dict = {}  # pivot column -> primitive integer row
    for row in rows:
        touched = [c for c in row if c in basis]
        v = row
        if touched:
            v = dict(row)
            for c in touched:
                prow = basis[c]
                p, f = prow[c], v[c]
                for k in v:
                    v[k] *= p
                _add_multiple(v, -f, prow)
        if not v:
            continue
        g = gcd(*v.values())
        if g != 1:
            v = {k: x // g for k, x in v.items()}
        lead = min(v)
        pv = v[lead]
        for c, prow in basis.items():
            f = prow.get(lead)
            if f:
                b = {k: pv * x for k, x in prow.items()}
                _add_multiple(b, -f, v)
                g = gcd(*b.values())
                basis[c] = b if g == 1 else {k: x // g for k, x in b.items()}
        basis[lead] = v
        if len(basis) == bound:
            break
    return basis


def _rank(rows: Iterable[dict], bound: int) -> int:
    """The rank of the sparse integer rows ``rows`` (see ``_echelon``), by
    forward elimination, reading rows only until the rank reaches ``bound``,
    a dimension the span cannot pass (their number or their width, at most).

    Forward-elimination lemma: rows with distinct leading columns are
    independent, and a row with no entry at any of their leading columns lies
    outside their span.  In a nonzero combination of them, the row with the
    smallest leading column among those with a nonzero coefficient is the only
    one nonzero there, so the combination is nonzero at a leading column.

    So only the rows kept need distinct leading columns, and an incoming row is
    reduced at the leading columns (pivots) of the kept rows, never the other
    way round.  At pivot ``c`` of kept row ``P`` with entry ``f``, with
    ``g = gcd(P[c], f)`` signed like ``P[c]``, it becomes
    ``(P[c]/g)*v - (f/g)*P``; ``P`` is zero before ``c``, so the pivots are
    visited in ascending order from a heap seeded with those the row touches,
    and the pivots ``P`` fills in join it.  A row left nonzero is zero at every
    pivot: it is divided by its gcd and kept, with its first column as its
    pivot; a row left zero lies in the span of the kept rows.  The kept rows
    are independent by the forward-elimination lemma and span every row read,
    so their number is the rank.  Rows are read, never changed.
    """
    basis: dict = {}  # pivot column -> primitive integer row
    for row in rows:
        heap = [c for c in row if c in basis]
        v = row
        if heap:
            v = dict(row)
            heapify(heap)
            while heap:
                c = heappop(heap)
                f = v.get(c)
                if not f:  # a pivot pushed twice, or cancelled by fill-in
                    continue
                prow = basis[c]
                p = prow[c]
                if p != 1:
                    g = gcd(p, f)
                    if p < 0:
                        g = -g
                    p, f = p // g, f // g
                    if p != 1:
                        for k in v:
                            v[k] *= p
                for k, y in prow.items():
                    x = v.get(k)
                    if x is None:
                        v[k] = -f * y
                        if k in basis:
                            heappush(heap, k)
                    else:
                        x -= f * y
                        if x:
                            v[k] = x
                        else:
                            del v[k]
        if not v:
            continue
        g = gcd(*v.values())
        if g != 1:
            v = {k: x // g for k, x in v.items()}
        basis[min(v)] = v
        if len(basis) == bound:
            break
    return len(basis)


def _gauss_jordan(a: list, width: int) -> tuple:
    """Fraction-free column-major Gauss-Jordan on the integer rows ``a``, in
    place, with pivots sought in the first ``width`` columns: the first
    nonzero entry top-to-bottom in each column, columns left-to-right.  A
    row ``R`` with entry ``f != 0`` in the column of pivot row ``P`` (pivot
    ``p``) becomes ``p*R - f*P`` divided by its gcd, so every row stays a
    nonzero multiple of the row Gauss-Jordan over the rationals would hold
    (Bareiss's integer-preserving elimination, Math. Comp. 22 (1968), with
    the gcd in place of the previous pivot).

    Returns ``(a, pivots, order)``: the reduced rows, pivot rows first; the
    pivot columns; and ``order[i]``, the input index of the row in place
    ``i`` after the swaps.
    """
    n = len(a)
    order = list(range(n))
    pivots = []
    prow = 0
    for col in range(width):
        pr = next((r for r in range(prow, n) if a[r][col]), None)
        if pr is None:
            continue
        if pr != prow:
            a[prow], a[pr] = a[pr], a[prow]
            order[prow], order[pr] = order[pr], order[prow]
        piv = a[prow]
        pv = piv[col]
        for r in range(n):
            f = a[r][col]
            if f == 0 or r == prow:
                continue
            row = [pv * x - f * y for x, y in zip(a[r], piv)]
            g = gcd(*row)
            a[r] = [x // g for x in row]
        pivots.append(col)
        prow += 1
        if prow == n:
            break
    return a, pivots, order


def _rref_rows(m: Matrix) -> tuple:
    """``(a, pivots, divisors)`` from ``_gauss_jordan`` on the integer rows of
    ``[m | I]``, as tuples: row ``i`` of the reduced row-echelon form of
    ``[m | I]`` is ``a[i] / divisors[i]``, by the divisor-rule lemma of
    ``rref``.  The elimination runs once per ``Matrix`` and is kept on it, as
    its hash is, so a drawn parameter's rank test, its witness factors and its
    normal-form transport all read one elimination.

    Row ``i`` enters as row ``i`` of ``m`` scaled by the lcm ``D`` of its
    denominators, then ``D`` at its unit column ``m.cols + i``.

    Primitive-row lemma: that row is primitive, so no gcd is taken.  No prime
    outside ``D`` divides the unit entry ``D``.  For a prime ``p`` dividing
    ``D``, some entry ``x = s/t`` has ``p^k || t`` with ``p^k || D``; then
    ``D x = s (D/t)`` with ``p`` dividing neither ``s`` (coprime to ``t``) nor
    ``D/t``.  ``_gauss_jordan`` keeps rows primitive from there on."""
    if m._rref is None:
        w, k = m.cols, m.rows
        a = []
        for i, row in enumerate(m._data):
            irow, den = _integer_row(row)
            unit = [0] * k
            unit[i] = den
            a.append([*irow, *unit])
        a, pivots, order = _gauss_jordan(a, w)
        r = len(pivots)
        divisors = tuple(row[pivots[i]] if i < r else row[w + order[i]] for i, row in enumerate(a))
        m._rref = tuple(map(tuple, a)), tuple(pivots), divisors
    return m._rref


def rref(m: Matrix) -> RrefResult:
    """Reduced row-echelon form with the invertible transform that produced it.

    Returns ``(reduced, pivots, transform)`` with ``transform @ m == reduced``.
    For a singular input the null rows of the transform depend on the pivot
    order, so ``rref`` runs ``_gauss_jordan`` on the integer rows of
    ``[m | I]`` (callers that only need the span call ``_eliminate``).  Each
    row ends as a nonzero multiple of the rational row, its divisor.

    Divisor-rule lemma: a pivot row's divisor is its pivot entry; a null row's
    is its entry in its own identity column, ``m.cols + k`` for the index ``k``
    it had in ``m``.  That entry is 1 over the rationals, because no pivot row
    ever absorbs a null row.  A pivot row is its input row plus multiples of
    earlier pivot rows, and changes only by multiples of other pivot rows, so
    by induction its identity block is zero outside the columns of the rows
    that became pivots.  A null row starts with 1 in its own identity column
    and only takes away multiples of pivot rows, so that entry stays 1.
    """
    w = m.cols
    a, pivots, divisors = _rref_rows(m)
    reduced = [tuple(scalar_div(x, d) if x else 0 for x in row) for row, d in zip(a, divisors)]
    return RrefResult(
        Matrix._raw(tuple(r[:w] for r in reduced)), tuple(pivots), Matrix._raw(tuple(r[w:] for r in reduced))
    )


def rank(m: Matrix) -> int:
    """The rank of ``m``, the length of the ``_echelon`` basis of its rows.
    The span loop, not the count loop ``_rank``: on a tall rank-deficient
    matrix ``_rank`` reduces each dependent row against unreduced kept rows,
    whose entries grow, where ``_echelon`` keeps its basis reduced."""
    return len(_echelon(map(_sparse_row, m._data), min(m.rows, m.cols)))


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ShapeError(f"cannot invert non-square {m.rows}x{m.cols} matrix")
    _, pivots, transform = rref(m)
    if len(pivots) < m.rows:
        raise SingularMatrixError(
            f"matrix of rank {len(pivots)} < {m.rows} is singular", rank=len(pivots)
        )
    return transform


def _null_rows(basis: dict, width: int) -> dict:
    """The null space of the rows of width ``width`` whose ``_echelon`` basis
    is ``basis``, as sparse integer rows ``{free column f: row}``, one for
    each column ``f`` that is no pivot.

    The row of ``f`` is ``L e_f - sum_c (L / P[c]) P[f] e_c``, over the basis
    rows ``P`` (pivot ``c``) with ``P[f] != 0``, and ``L`` is the lcm of
    their pivot entries.  Divided by ``L`` it is the free-variable vector of
    ``f``: 1 at ``f``, 0 at the other free columns and ``-R[f]`` at the
    pivot of each reduced row ``R``.  Each ``P`` is zero at the other
    pivots, so each such vector is orthogonal to every ``P``, and they are
    independent, as each is the only one nonzero at its free column.  So
    the result has the shape of an ``_echelon`` basis keyed by the free
    columns, and ``_reduced_rows`` writes out the free-variable vectors.
    """
    terms: dict = {f: [] for f in range(width) if f not in basis}  # f -> [(c, P[c], P[f])]
    for c, row in basis.items():
        for f, x in row.items():
            if f != c:
                terms[f].append((c, row[c], x))
    null = {}
    for f, col in terms.items():
        den = lcm(*(p for _, p, _ in col))
        null[f] = {f: den, **{c: -(den // p) * x for c, p, x in col}}
    return null


def kernel(m: Matrix) -> "Subspace":
    """Basis of the right null space, as column vectors in canonical form:
    the free-variable vectors of ``_null_rows``, in the order of their free
    columns.  Its echelon rows come from one more ``_echelon`` of them."""
    null = _null_rows(_echelon(map(_sparse_row, m._data), m.cols), m.cols)
    vectors = tuple(Matrix._raw(tuple((x,) for x in v)) for v in _reduced_rows(null, m.cols)[0])
    echelon = _reduced_rows(_echelon(null.values(), len(null)), m.cols)[0]
    return Subspace._trusted(m.cols, 1, vectors, echelon)


def rank_normal_form(rows: int, cols: int, r: int) -> Matrix:
    """The rows x cols matrix with the identity of size ``r`` in the top-left
    corner and zeros elsewhere (``r = 0`` gives the zero matrix)."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"invalid shape {rows}x{cols}")
    if not (0 <= r <= min(rows, cols)):
        raise ShapeError(f"rank {r} out of range for {rows}x{cols}")
    zero = (0,) * cols
    return Matrix._raw(tuple(zero[:i] + (1,) + zero[i + 1 :] if i < r else zero for i in range(rows)))


class _Value:
    """A value of the fields named in ``_fields``, as a frozen dataclass is,
    with no code generated at import: equal to a value of its own class with
    equal fields, hashed and shown by them, and read-only.  Each subclass's
    ``__init__`` sets its fields with ``object.__setattr__`` and then checks
    them."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        # The tuple of the fields, read in one call; every value class has two or more.
        cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RankFactorization(_Value):
    """Invertible ``q`` (rows x rows), ``p`` (cols x cols) and ``rank`` with
    ``q @ rank_normal_form(rows, cols, rank) @ p`` equal to the input."""

    _fields = ("q", "p", "rank")

    def __init__(self, q: Matrix, p: Matrix, rank: int):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", rank)


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
    units = tuple(tuple(1 if c == f else 0 for c in range(n)) for f in range(n) if f not in pivots)
    return RankFactorization(inverse(transform), Matrix._raw(reduced._data[:r] + units), r)


def _over_common_denominator(rows) -> tuple:
    """``_integer_row`` of the flattened rational matrix whose rows are given
    as ``(numerators, den)``."""
    lowest = []
    for num, den in rows:
        g = gcd(den, *num)
        lowest.append((num, den) if g == 1 else ([x // g for x in num], den // g))
    d = lcm(*(den for _, den in lowest))
    return [x * (d // den) for num, den in lowest for x in num], d


def _rref_factors(e1: tuple, e2: tuple, n: int, m: int) -> tuple:
    """``(pflat, dp, qflat, dq)`` with ``j1 = Q j2 P`` for two ``m x n``
    parameters of one rank, from their ``_rref_rows`` ``e1`` and ``e2``:
    ``P`` (``n x n``) the integer row-major ``pflat`` over ``dp`` and ``Q``
    (``m x m``) the integer row-major ``qflat`` over ``dq``.

    With ``T_k j_k = R_k`` the reduced row-echelon form of ``j_k``, its rank
    factorization ``j_k = q_k D p_k`` has ``q_k = T_k^-1`` and ``p_k`` the
    nonzero rows of ``R_k``, then the unit rows of its free columns, so
    ``Q = T1^-1 T2`` and ``P = p2^-1 p1`` satisfy ``j1 = Q j2 P``.

    All on integer rows: row ``i`` of ``[R_k | T_k]`` is the integer row
    ``[R_k' | T_k']`` of ``e_k`` over its divisor ``d_k,i``.  One
    ``_gauss_jordan`` on the rows ``[d2_i T1'_i | d1_i T2'_i]`` of
    ``[T1 | T2]``, each scaled by ``d1_i d2_i`` (which does not change the
    solution), gives ``Q`` as its right block over the pivots.  ``P`` is
    written down: pairing the free columns ``f2`` of ``R2`` with those
    ``f1`` of ``R1`` in order, row ``c2_i`` (the i-th pivot column of
    ``R2``) is row ``i`` of ``R1`` minus the sum of ``R2[i][f2] e_f1``, and
    row ``f2`` is ``e_f1``.
    """
    (a1, pivots1, d1), (a2, pivots2, d2) = e1, e2
    free = list(zip((c for c in range(n) if c not in pivots2), (c for c in range(n) if c not in pivots1)))
    prows = [None] * n
    for c2, u, v, x1, x2 in zip(pivots2, a1, a2, d1, d2):
        num = [x2 * x for x in u[:n]]
        for f2, f1 in free:
            num[f1] -= x1 * v[f2]
        prows[c2] = (num, x1 * x2)
    for f2, f1 in free:
        prows[f2] = ([1 if c == f1 else 0 for c in range(n)], 1)
    stacked = [[x2 * x for x in u[n:]] + [x1 * x for x in v[n:]] for u, v, x1, x2 in zip(a1, a2, d1, d2)]
    reduced = _gauss_jordan(stacked, m)[0]
    pflat, dp = _over_common_denominator(prows)
    qflat, dq = _over_common_denominator((row[m:], row[i]) for i, row in enumerate(reduced))
    return pflat, dp, qflat, dq


def _normal_form_factors(e: tuple, n: int, m: int) -> tuple:
    """``(pflat, dp, qflat, dq)`` with ``N_r = Q j P``, for the ``m x n``
    parameter ``j`` of rank ``r`` whose ``_rref_rows`` are ``e`` and its rank
    normal form ``N_r``, in the form of ``_rref_factors``.

    Normal-form-factor lemma: take ``T j = R`` read off ``e``, with pivots
    ``c_i`` and free columns ``f_k``.  Let ``P`` have column ``i`` equal to
    ``e_(c_i)`` (for ``i < r``), and column ``r + k`` equal to
    ``e_(f_k) - sum_i R[i][f_k] e_(c_i)``.  Then ``N_r = T j P``: column
    ``c_i`` of ``R`` is ``e_i``, and column ``f_k`` is ``sum_i R[i][f_k] e_i``.
    So ``Q = T`` is the right block of ``e`` over the divisors, and ``P`` is
    written down: row ``c_i`` holds 1 at column ``i`` and ``-R[i][f_k]`` at
    column ``r + k``, and row ``f_k`` is ``e_(r+k)``.  By the classification
    lemma of ``classify``, ``A -> P A Q`` is then an isomorphism from the
    ``N_r``-bracket onto the ``j``-bracket.
    """
    a, pivots, divisors = e
    r = len(pivots)
    free = [c for c in range(n) if c not in pivots]
    prows = [None] * n
    for i, (c, row, d) in enumerate(zip(pivots, a, divisors)):
        num = [0] * n
        num[i] = d
        for k, f in enumerate(free, r):
            num[k] = -row[f]
        prows[c] = (num, d)
    for k, f in enumerate(free, r):
        prows[f] = ([1 if c == k else 0 for c in range(n)], 1)
    pflat, dp = _over_common_denominator(prows)
    qflat, dq = _over_common_denominator((row[n:], d) for row, d in zip(a, divisors))
    return pflat, dp, qflat, dq


def _normal_form_transport(j: Matrix):
    """The rank ``r`` of the ``m x n`` parameter ``j`` when the factors of
    ``N_r = Q j P`` that ``_normal_form_factors`` writes from
    ``_rref_rows(j)`` are proved, else None.  By the classification lemma
    of ``classify``, ``A -> P A Q`` is then an isomorphism from the
    ``N_r``-bracket onto the ``j``-bracket.

    Null-block lemma: if ``N_r = Q j P``, then ``Q`` is invertible iff its
    last ``m - r`` rows are independent, and ``P`` iff its last ``n - r``
    columns are.  If ``x Q = 0``, then ``x N_r = x Q j P = 0``, and
    ``x N_r = (x_0, .., x_(r-1), 0, ..)``, so ``x`` is zero outside its last
    ``m - r`` coordinates.  If ``P y = 0``, then ``N_r y = 0``, so
    ``y_0 .. y_(r-1) = 0``.

    So after ``_factor_identity`` the proof takes ``_rank`` of the ``m - r``
    null rows of ``Q' = dq Q`` and of the ``n - r`` null columns of
    ``P' = dp P``, each stopped at its full count, and none of an empty
    block: for a square ``j`` of full rank, no rank at all."""
    m, n = j.shape
    e = _rref_rows(j)
    r = len(e[1])
    factors = pflat, _, qflat, _ = _normal_form_factors(e, n, m)
    if not _factor_identity(rank_normal_form(m, n, r), j, *factors):
        return None
    qrows = (_sparse_row(qflat[i * m : (i + 1) * m]) for i in range(r, m))
    pcols = (_sparse_row(pflat[c::n]) for c in range(r, n))
    return r if all(_rank(rows, k) == k for rows, k in ((qrows, m - r), (pcols, n - r)) if k) else None


def _factor_identity(j1: Matrix, j2: Matrix, pflat, dp: int, qflat, dq: int) -> bool:
    """Whether ``j1 = Q j2 P`` for factors in the form of
    ``_rref_factors``, as the integer identity ``dp dq d2 J1' = d1 Q' J2'
    P'`` with ``J_k' = d_k j_k`` integer, one row of ``Q' J2'`` at a time."""
    m, n = j1.shape
    j1flat, d1 = _integer_row(j1.entries)
    j2flat, d2 = _integer_row(j2.entries)
    j2cols = [j2flat[c::n] for c in range(n)]
    pcols = [pflat[c::n] for c in range(n)]
    s = dp * dq * d2
    for i in range(m):
        qrow = qflat[i * m : (i + 1) * m]
        qj = [sum(map(mul, qrow, col)) for col in j2cols]
        if any(d1 * sum(map(mul, qj, col)) != s * x for col, x in zip(pcols, j1flat[i * n : (i + 1) * n])):
            return False
    return True


def _identity_factors(n: int, m: int) -> tuple:
    """``(pflat, dp, qflat, dq)`` of ``P = I_n`` and ``Q = I_m``, in the form
    of ``_rref_factors``."""

    def flat(k: int) -> list:
        return [1 if i == j else 0 for i in range(k) for j in range(k)]

    return flat(n), 1, flat(m), 1


def _factor_check(j1: Matrix, j2: Matrix, factors: tuple):
    """None when the factors ``(pflat, dp, qflat, dq)`` of ``j1 = Q j2 P``
    of a pair, from ``_rref_factors`` or ``_identity_factors``, fail that
    identity (``_factor_identity``); else whether ``P`` and ``Q`` are
    invertible, ``rank P' = n`` and ``rank Q' = m`` for the integer
    ``P' = dp P`` and ``Q' = dq Q``: two ``_rank`` calls, each stopped at
    full rank.  (A parameter and its normal form take
    ``_normal_form_transport``, whose ranks cover only the null blocks.)

    So ``True`` proves ``j1`` and ``j2`` equivalent, and by the
    classification lemma of ``classify`` the map ``A -> P A Q`` an
    isomorphism from the j1-bracket onto the j2-bracket on ``Mat(n x m)``.
    For the ``_identity_factors`` no product and no rank is taken: the
    identity ``j1 = I j2 I`` is ``j1 == j2``, and ``I`` has full rank, so
    the classification lemma with ``P = Q = I`` proves the identity map an
    isomorphism exactly when the parameters are equal."""
    m, n = j1.shape
    pflat, _, qflat, _ = factors
    if factors == _identity_factors(n, m):
        return True if j1 == j2 else None
    if not _factor_identity(j1, j2, *factors):
        return None
    prows = (_sparse_row(pflat[i * n : (i + 1) * n]) for i in range(n))
    qrows = (_sparse_row(qflat[j * m : (j + 1) * m]) for j in range(m))
    return _rank(prows, n) == n and _rank(qrows, m) == m


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
        echelon, pivots = _eliminate([b.entries for b in basis])
        if len(pivots) != len(basis):
            raise ValueError("basis matrices are linearly dependent")
        self.ambient_rows = ambient_rows
        self.ambient_cols = ambient_cols
        self.basis = basis
        self._echelon = echelon

    @classmethod
    def _trusted(cls, ambient_rows: int, ambient_cols: int, basis: tuple, echelon) -> "Subspace":
        # Internal: ``basis`` is independent and of the ambient shape;
        # ``echelon`` is its reduced row-echelon form.
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
        return cls._from_echelon(ambient_rows, ambient_cols, _eliminate(rows)[0])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _echelon_rows(self) -> tuple:
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            (self.ambient_rows, self.ambient_cols) == (other.ambient_rows, other.ambient_cols)
            and self._echelon_rows() == other._echelon_rows()
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_rows}x{self.ambient_cols})"

