"""Named constructions on top of the bracket family.

* the (2n+1)-dimensional Heisenberg algebra realized with a corank-one
  parameter on square matrices of size n+2,
* the trace obstruction ruling out low-dimensional faithful Heisenberg
  representations,
* the semidirect model S(V1, V2) isomorphic to the rank-r bracket algebra
  on square matrices,
* zero-padding of a commutator matrix algebra into a rectangular bracket
  algebra (every matrix Lie algebra embeds this way),
* a catalog of small worked examples with their expected brackets,
  including the ones whose published values disagree with the bracket
  definition (kept, flagged): one table, ``_CATALOG``, with one row per
  example, read by one builder, ``example_catalog``.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

from .algebra import LieAlgebra, _hom_failures, center, hom_check, lower_central_series, subalgebra_closed
from .brackets import BracketParam, StructureConstants, _pair_brackets, basis_matrices
from .matrices import Matrix, ShapeError, Subspace, _Value, _integer_row, _rank, _sparse_row, matrix_to_json, rank, rref
from .scalars import scalar_str, to_scalar


class HypothesisError(ValueError):
    """Raised when a construction's size hypotheses are violated."""


def restricted_constants(basis: Tuple[Matrix, ...], param: BracketParam, labels=None) -> LieAlgebra:
    """Structure constants of the bracket restricted to the span of ``basis``.

    Fails if the span is not closed under the bracket, and, for a bracket
    inside the span, if ``basis`` is linearly dependent.  The basis is
    eliminated once: with ``T B = R`` the reduced row-echelon form of the flat
    basis rows (pivot columns ``c_i``), a bracket ``w`` lies in the span
    exactly when ``w = sum_i w[c_i] R_i``, and its coordinates are then
    ``sum_i w[c_i] T_i``.  Both sums run over the nonzero entries only.
    """
    dim = len(basis)
    pairs = _pair_brackets(basis, param)  # checks the shapes first
    echelon = []  # (pivot column, nonzero entries of R_i, nonzero entries of T_i)
    independent = True
    if dim:
        reduced, pivots, transform = rref(Matrix._raw(tuple(b.entries for b in basis)))
        for c, row, trow in zip(pivots, reduced._data, transform._data):
            nonzero = [(k, x) for k, x in enumerate(row) if x]
            echelon.append((c, nonzero, [(k, x) for k, x in enumerate(trow) if x]))
        independent = len(pivots) == dim
    table: Dict[tuple, dict] = {}
    for a, b, w in pairs:
        residual = {k: x for k, x in enumerate(w) if x}
        coords = [0] * dim
        for c, row, trow in echelon:
            f = w[c]
            if not f:
                continue
            for k, x in row:
                v = residual.get(k, 0) - f * x
                if v:
                    residual[k] = v
                else:
                    del residual[k]
            for k, x in trow:
                coords[k] += f * x
        if residual:
            raise ValueError(f"span not closed: bracket of basis elements {a} and {b} leaves the span")
        if not independent:
            raise ValueError("basis matrices are linearly dependent")
        terms = {k: to_scalar(v) for k, v in enumerate(coords) if v != 0}
        if terms:
            table[(a, b)] = terms
    return LieAlgebra(dim, StructureConstants(dim, table), labels)


# ---------------------------------------------------------------------------
# Heisenberg realization and the representation obstruction
# ---------------------------------------------------------------------------

def heisenberg_abstract(n: int) -> LieAlgebra:
    """The (2n+1)-dimensional Heisenberg algebra: [X_i, Y_i] = Z, Z central.

    Basis order: X_1..X_n, Y_1..Y_n, Z.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    dim = 2 * n + 1
    table = {(i, n + i): {2 * n: 1} for i in range(n)}
    labels = tuple(
        [f"X{i + 1}" for i in range(n)] + [f"Y{i + 1}" for i in range(n)] + ["Z"]
    )
    return LieAlgebra(dim, StructureConstants(dim, table), labels)


class HeisenbergModel(_Value):
    """Generators X_i = E(1, i+1), Y_i = E(i+1, n+2), Z = E(1, n+2) inside
    square matrices of size n+2 under the corank-one normal parameter."""

    _fields = ("n", "ambient", "xs", "ys", "z")

    def __init__(self, n: int, ambient: BracketParam, xs: Tuple[Matrix, ...], ys: Tuple[Matrix, ...], z: Matrix):
        self._set(n, ambient, xs, ys, z)

    def generators(self) -> Tuple[Matrix, ...]:
        return self.xs + self.ys + (self.z,)

    def span(self) -> Subspace:
        size = self.n + 2
        return Subspace(size, size, self.generators())

    def abstract(self) -> LieAlgebra:
        return heisenberg_abstract(self.n)

    def realized_algebra(self) -> LieAlgebra:
        return restricted_constants(self.generators(), self.ambient, self.abstract().labels)


def _heisenberg_generators(n: int) -> tuple:
    """``(xs, ys, z)``: ``X_i = E(1, i+1)``, ``Y_i = E(i+1, n+2)`` and
    ``Z = E(1, n+2)`` in square matrices of size n+2."""
    size = n + 2
    xs = tuple(Matrix.unit(size, size, 0, i + 1) for i in range(n))
    ys = tuple(Matrix.unit(size, size, i + 1, size - 1) for i in range(n))
    return xs, ys, Matrix.unit(size, size, 0, size - 1)


def heisenberg_realization(n: int) -> HeisenbergModel:
    """Build the realization and verify every generator bracket exactly."""
    if n < 1:
        raise HypothesisError(f"need n >= 1, got {n}")
    size = n + 2
    param = BracketParam.normal(size, size, n + 1)
    model = HeisenbergModel(n, param, *_heisenberg_generators(n))
    gens = model.generators()
    if rank(Matrix(tuple(g.entries for g in gens))) != 2 * n + 1:
        raise ValueError("generators are linearly dependent")
    labels = model.abstract().labels
    zero = (0,) * (size * size)
    for a, b, w in _pair_brackets(gens, param):
        to_z = a < n and b == a + n  # [X_i, Y_i]
        if w != (model.z.entries if to_z else zero):
            if b == 2 * n:
                raise ValueError("Z is not central among the generators")
            raise ValueError(f"[{labels[a]}, {labels[b]}] != {'Z' if to_z else '0'}")
    return model


def heisenberg_verdicts(model: HeisenbergModel) -> Dict[str, dict]:
    """Verdicts on a realization, by name: the span is a subalgebra, its
    constants are the Heisenberg constants, its lower central series has
    dimensions ``[2n+1, 1, 0]``, and its center is spanned by Z.  A span
    that is not closed has no restricted algebra, so the other three fail
    with it, and none is built."""
    n = model.n
    closed = subalgebra_closed(model.ambient, model.span())
    if not closed:
        return {
            "subalgebra_closed": {"pass": False, "witness": closed.witness},
            "constants_match": {"pass": False},
            "lcs_dims": {"pass": False, "got": None},
            "center": {"pass": False, "dim": None},
        }
    realized = model.realized_algebra()
    lcs = [t.dim for t in lower_central_series(realized)]
    ctr = center(realized)
    z_coords = realized.from_coords([0] * (2 * n) + [1])
    return {
        "subalgebra_closed": {"pass": closed.passed, "witness": closed.witness},
        "constants_match": {"pass": realized.constants == model.abstract().constants},
        "lcs_dims": {"pass": lcs == [2 * n + 1, 1, 0], "got": lcs},
        "center": {"pass": ctr.dim == 1 and ctr.contains(z_coords), "dim": ctr.dim},
    }


class RepCandidate(_Value):
    """A proposed matrix representation: one image per basis element."""

    _fields = ("src", "images", "target_dim")

    def __init__(self, src: LieAlgebra, images: Tuple[Matrix, ...], target_dim: int):
        self._set(src, images, target_dim)
        if len(images) != src.dim:
            raise ShapeError(f"{src.dim} basis elements but {len(images)} images")
        for img in images:
            if img.shape != (target_dim, target_dim):
                raise ShapeError(f"image of shape {img.rows}x{img.cols}, expected square {target_dim}")

    def as_map(self) -> Matrix:
        """The matrix whose column ``a`` is the flat image of basis element ``a``."""
        return Matrix(tuple(zip(*(img.entries for img in self.images))))


def classical_representation(n: int = 1) -> RepCandidate:
    """The strictly-upper-triangular faithful representation in size n+2."""
    xs, ys, z = _heisenberg_generators(n)
    return RepCandidate(heisenberg_abstract(n), xs + ys + (z,), n + 2)


_OBSTRUCTION_KINDS = ("not-a-hom", "not-faithful", "faithful", "scalar-Z-contradiction")


class ObstructionVerdict(_Value):
    _fields = ("kind", "detail")

    def __init__(self, kind: str, detail: Optional[dict] = None):
        self._set(kind, detail)
        if kind not in _OBSTRUCTION_KINDS:
            raise ValueError(f"unknown verdict kind {kind!r}")


def heisenberg_obstruction(cand: RepCandidate) -> ObstructionVerdict:
    """Judge a candidate representation of the Heisenberg algebra.

    A nonzero scalar image of the central element Z is contradictory on its
    own: Z is a bracket of generators, any homomorphic image of it is a
    commutator and hence traceless, while a nonzero scalar matrix has
    nonzero trace in characteristic zero.  Otherwise the candidate is
    checked as a commutator homomorphism, on the integer columns of its
    images and through the commutator model, so no structure constants of
    gl(k) are built; the first of its ``_hom_failures`` makes it not a
    homomorphism, and only a homomorphism has its rank taken, once, for
    injectivity.
    """
    d = cand.src.dim
    if d < 3 or d % 2 == 0:
        raise ShapeError(f"source dimension {d} is not 2n+1 for n >= 1")
    n = (d - 1) // 2
    if cand.src.constants.table != {(i, n + i): {2 * n: 1} for i in range(n)}:
        raise ValueError("source is not the Heisenberg algebra in canonical basis order")
    z_img = cand.images[-1]
    if not z_img.is_zero() and z_img.is_scalar_multiple_of_identity():
        lam = z_img[0, 0]
        return ObstructionVerdict(
            "scalar-Z-contradiction",
            {
                "z_image_scalar": scalar_str(lam),
                "trace": scalar_str(z_img.trace()),
                "reason": "a commutator has trace 0, a nonzero scalar matrix does not",
            },
        )
    flat, den = _integer_row(tuple(chain.from_iterable(img.entries for img in cand.images)))
    size = cand.target_dim**2
    fcols = [flat[a * size : (a + 1) * size] for a in range(d)]
    witness = next(_hom_failures(fcols, den, cand.src.constants.table, BracketParam.commutator(cand.target_dim)), None)
    if witness is not None:
        return ObstructionVerdict("not-a-hom", witness)
    map_rank = _rank(map(_sparse_row, fcols), size)
    if map_rank == d:
        return ObstructionVerdict("faithful", {"target_dim": cand.target_dim})
    return ObstructionVerdict("not-faithful", {"map_rank": map_rank, "needed": d})


# ---------------------------------------------------------------------------
# The semidirect model S(V1, V2)
# ---------------------------------------------------------------------------

class SemidirectModel(_Value):
    """End(V1) acting on the two-step nilpotent algebra
    Hom(V1,V2) + Hom(V2,V1) + End(V2), isomorphic to the rank-r bracket
    algebra on square matrices of size r+s via the block-assembly map
    ``phi``, the matrix whose column ``a`` is the flat image of basis
    element ``a``."""

    _fields = ("r", "s", "constants", "phi", "labels")

    def __init__(self, r: int, s: int, constants: StructureConstants, phi: Matrix, labels: Tuple[str, ...]):
        self._set(r, s, constants, phi, labels)

    @property
    def dim(self) -> int:
        return (self.r + self.s) ** 2

    def algebra(self) -> LieAlgebra:
        return LieAlgebra(self.dim, self.constants, self.labels)

    def target(self) -> BracketParam:
        """The rank-r bracket on square matrices of size r+s, onto which
        ``phi`` maps the algebra."""
        n = self.r + self.s
        return BracketParam.normal(n, n, self.r)

    def nilpotent_indices(self) -> range:
        """Coordinate range of the nilpotent part (the A, B, C components)."""
        return range(self.r * self.r, self.dim)


# The quadruple bracket is ``[x, y] = x.y - y.x`` for the product
# ``(X,A,B,C).(X',A',B',C') = (XX', AX', XB', AB')``: one product of blocks
# per component, as (left factor, right factor, product).
_UNIT_PRODUCTS = (("X", "X", "X"), ("A", "X", "A"), ("X", "B", "B"), ("A", "B", "C"))


def semidirect_S(r: int, s: int) -> SemidirectModel:
    """Build S(V1, V2) with dim V1 = r, dim V2 = s and its verified isomorphism.

    The bracket of quadruples is
    ``[(X,A,B,C), (X',A',B',C')] = ([X,X'], AX' - A'X, XB' - X'B, AB' - A'B)``
    and the isomorphism assembles the blocks as ``[[X, B], [A, C]]``.

    The basis is the unit blocks, so each product in ``_UNIT_PRODUCTS`` is
    ``E_ij E_kl = [j = k] E_il``: the table is written from these unit
    products alone, and ``phi`` sends each unit block to one unit matrix.
    The table is built by its own rule, not from ``structure_constants`` of
    the rank-r parameter, and ``hom_check`` tests it against the two-term
    bracket of that parameter, through ``brackets._packed_brackets``.
    """
    if r < 1 or s < 0:
        raise HypothesisError(f"need r >= 1 and s >= 0, got r={r}, s={s}")
    n = r + s
    dim = n * n
    # name, shape and top-left corner in [[X, B], [A, C]] of each component
    components = (("X", r, r, 0, 0), ("A", s, r, r, 0), ("B", r, s, 0, r), ("C", s, s, r, r))

    place = {}  # name -> (coordinate of its first unit block, rows, cols)
    labels: List[str] = []
    positions = []  # flat position in Mat(n x n) of each unit block
    for name, rows, cols, r0, c0 in components:
        place[name] = (len(labels), rows, cols)
        for i in range(rows):
            for j in range(cols):
                labels.append(f"{name}[{i + 1},{j + 1}]")
                positions.append((r0 + i) * n + c0 + j)

    table: Dict[tuple, dict] = {}
    for left, right, product in _UNIT_PRODUCTS:
        (off_a, p, q), (off_b, _, t), (off_k, *_) = place[left], place[right], place[product]
        for i in range(p):
            for j in range(q):
                a = off_a + i * q + j
                for l in range(t):
                    b = off_b + j * t + l
                    if a == b:  # [x, x] = 0
                        continue
                    # x_a.x_b enters [x_a, x_b] with + and [x_b, x_a] with -
                    pair, sign = ((a, b), 1) if a < b else ((b, a), -1)
                    k = off_k + i * t + l
                    terms = table.setdefault(pair, {})
                    terms[k] = terms.get(k, 0) + sign
    # sorted, so that the table iterates in the order of its JSON form
    constants = StructureConstants(dim, {pair: dict(sorted(table[pair].items())) for pair in sorted(table)})

    phi_rows = [[0] * dim for _ in range(dim)]
    for a, pos in enumerate(positions):
        phi_rows[pos][a] = 1
    phi = Matrix._raw(tuple(map(tuple, phi_rows)))
    model = SemidirectModel(r, s, constants, phi, tuple(labels))
    verdict = hom_check(phi, model.algebra(), model.target())
    if not verdict.bijective:
        raise ValueError(f"block-assembly map failed verification: {verdict.witness}")
    return model


# ---------------------------------------------------------------------------
# Zero-padding embeddings
# ---------------------------------------------------------------------------

def pad_matrix(m: Matrix, rows: int, cols: int) -> Matrix:
    if rows < m.rows or cols < m.cols:
        raise ShapeError(f"cannot pad {m.rows}x{m.cols} into {rows}x{cols}")
    out = [[0] * cols for _ in range(rows)]
    for i in range(m.rows):
        for j in range(m.cols):
            out[i][j] = m[i, j]
    return Matrix(out)


def ado_embed(cand: RepCandidate, n: int, m: int, q: int):
    """Pad a commutator matrix algebra into ``Mat(n x m)`` with the rank-q
    normal parameter; returns the padded span and the verification verdict.

    Requires ``q >= p`` and ``n, m >= q`` where ``p`` is the candidate's
    matrix size; brackets of matrices supported in the top-left ``p x p``
    corner then reduce to ordinary commutators.
    """
    p = cand.target_dim
    if q < p:
        raise HypothesisError(f"need q >= p: q={q} < p={p}")
    if n < q or m < q:
        raise HypothesisError(f"need n, m >= q: n={n}, m={m}, q={q}")
    pre = hom_check(cand.as_map(), cand.src, BracketParam.commutator(p))
    if not pre.is_hom:
        raise ValueError(f"candidate is not a commutator homomorphism: {pre.witness}")
    padded = [pad_matrix(img, n, m) for img in cand.images]
    verdict = hom_check(Matrix(tuple(zip(*(mat.entries for mat in padded)))), cand.src, BracketParam.normal(n, m, q))
    span = Subspace.span(n, m, padded)
    return span, verdict


# ---------------------------------------------------------------------------
# Worked-example catalog
# ---------------------------------------------------------------------------

class BracketClaim(_Value):
    """An expected bracket value recorded next to the computed one."""

    _fields = ("left", "right", "claimed", "computed", "note")

    def __init__(self, left: str, right: str, claimed: tuple, computed: tuple, note: str = ""):
        self._set(left, right, claimed, computed, note)

    @property
    def matches(self) -> bool:
        return tuple(self.claimed) == tuple(self.computed)

    def to_json(self, labels) -> dict:
        def coords(c):
            return {labels[k]: scalar_str(v) for k, v in enumerate(c) if v != 0}

        return {
            "pair": [self.left, self.right],
            "claimed": coords(self.claimed),
            "computed": coords(self.computed),
            "matches": self.matches,
            "note": self.note,
        }


class CatalogEntry(_Value):
    _fields = ("name", "description", "param", "basis", "labels", "algebra", "claims")

    def __init__(
        self,
        name: str,
        description: str,
        param: BracketParam,
        basis: Tuple[Matrix, ...],
        labels: Tuple[str, ...],
        algebra: LieAlgebra,
        claims: Tuple[BracketClaim, ...],
    ):
        self._set(name, description, param, basis, labels, algebra, claims)

    @property
    def discrepancies(self) -> tuple:
        return tuple(f"[{c.left},{c.right}]" for c in self.claims if not c.matches)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "param": {
                "n": self.param.n,
                "m": self.param.m,
                "j": matrix_to_json(self.param.j),
            },
            "basis": {lbl: matrix_to_json(b) for lbl, b in zip(self.labels, self.basis)},
            "constants": self.algebra.constants.to_json(),
            "claims": [c.to_json(self.labels) for c in self.claims],
            "discrepancies": list(self.discrepancies),
        }


# name -> (description, parameter, {label: basis matrix}, claims); each claim
# is (left, right, published coordinates of [left, right], note), and a note
# explains a published value that direct evaluation contradicts.
_CATALOG = {
    "heisenberg3_gl21": (
        "Faithful Heisenberg triple inside 2x2 matrices with the rank-1 parameter "
        "diag(1,0); no such triple exists under the ordinary 2x2 commutator.",
        BracketParam(2, 2, Matrix.diagonal([1, 0])),
        {"X": Matrix.unit(2, 2, 1, 0), "Y": Matrix.unit(2, 2, 0, 1), "Z": Matrix.unit(2, 2, 1, 1)},
        (
            ("X", "Y", (0, 0, 1), "the 3-dimensional Heisenberg relation"),
            ("X", "Z", (0, 0, 0), ""),
            ("Y", "Z", (0, 0, 0), ""),
        ),
    ),
    "affine2_column": (
        "Column space R^2 with parameter (1 0): the nonabelian two-dimensional "
        "(affine) Lie algebra.",
        BracketParam(2, 1, Matrix([[1, 0]])),
        {"e1": Matrix.column([1, 0]), "e2": Matrix.column([0, 1])},
        (
            (
                "e2",
                "e1",
                (1, 0),
                "published value is e1; direct evaluation of the bracket gives e2 "
                "(still the nonabelian 2-dimensional algebra)",
            ),
        ),
    ),
    "g32_1": (
        "Column space R^3 with parameter (1 0 0) and sign-flipped first basis "
        "vector: the solvable algebra with [e1,e2]=e2, [e1,e3]=e3.",
        BracketParam(3, 1, Matrix([[1, 0, 0]])),
        {"e1": Matrix.column([-1, 0, 0]), "e2": Matrix.column([0, 1, 0]), "e3": Matrix.column([0, 0, 1])},
        (("e1", "e2", (0, 1, 0), ""), ("e1", "e3", (0, 0, 1), ""), ("e2", "e3", (0, 0, 0), "")),
    ),
    "column4": (
        "Column space R^4 with parameter (1 0 0 0): brackets "
        "[e_i,e_j] = d(j,1) e_i - d(i,1) e_j.",
        BracketParam(4, 1, Matrix([[1, 0, 0, 0]])),
        {f"e{i + 1}": Matrix.unit(4, 1, i, 0) for i in range(4)},
        (
            ("e1", "e2", (0, -1, 0, 0), ""),
            ("e1", "e3", (0, 0, -1, 0), ""),
            ("e1", "e4", (0, 0, 0, -1), ""),
            ("e2", "e3", (0, 0, 0, 0), ""),
            ("e2", "e4", (0, 0, 0, 0), ""),
            ("e3", "e4", (0, 0, 0, 0), ""),
        ),
    ),
    "mat2_rank1": (
        "Full 2x2 matrix space with the rank-1 parameter diag(0,1), containing "
        "the standard sl(2) generators H, X, Y (completed by the identity).",
        BracketParam(2, 2, Matrix.diagonal([0, 1])),
        {
            "H": Matrix.diagonal([1, -1]),
            "X": Matrix.unit(2, 2, 0, 1),
            "Y": Matrix.unit(2, 2, 1, 0),
            "I": Matrix.identity(2),
        },
        (
            ("H", "X", (0, 1, 0, 0), ""),
            ("H", "Y", (0, 0, -1, 0), ""),
            (
                "X",
                "Y",
                (0, 0, 0, 0),
                "published value is 0; direct evaluation gives E(1,1) = (H + I)/2, so "
                "span{H,X,Y} is not closed under this bracket and the entry works on "
                "the full 2x2 space",
            ),
        ),
    ),
    "mat2_full": (
        "Full 2x2 matrix space with the identity parameter: the ordinary "
        "commutator algebra gl(2).",
        BracketParam.commutator(2),
        dict(zip(("E11", "E12", "E21", "E22"), basis_matrices(2, 2))),
        (
            ("E11", "E12", (0, 1, 0, 0), ""),
            ("E11", "E21", (0, 0, -1, 0), ""),
            ("E11", "E22", (0, 0, 0, 0), ""),
            ("E12", "E21", (1, 0, 0, -1), ""),
            ("E12", "E22", (0, 1, 0, 0), ""),
            ("E21", "E22", (0, 0, -1, 0), ""),
        ),
    ),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def example_catalog(name: str) -> CatalogEntry:
    """Build a worked example from its row of ``_CATALOG``: the algebra is
    the bracket restricted to the span of the basis, and each claim is set
    beside the computed coordinates of its bracket.  Unknown names list the
    valid ones."""
    try:
        description, param, named_basis, claims = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; valid names: {', '.join(CATALOG_NAMES)}"
        ) from None
    labels, basis = tuple(named_basis), tuple(named_basis.values())
    algebra = restricted_constants(basis, param, labels)
    index = {lbl: k for k, lbl in enumerate(labels)}
    checked = []
    for left, right, claimed, note in claims:
        computed = algebra.constants.bracket_basis(index[left], index[right])
        dense = tuple(computed.get(k, 0) for k in range(algebra.dim))
        checked.append(BracketClaim(left, right, claimed, dense, note))
    return CatalogEntry(name, description, param, basis, labels, algebra, tuple(checked))
