"""Exact integer linear algebra over Z.

Everything here works with arbitrary-precision Python ints; no floats ever
enter a computation.  The central primitive is the Smith normal form with
unimodular transforms on both sides, from which integer system solving,
scaled inverses (adjugates, inverses of unimodular matrices), cokernels of
maps of free modules, homomorphism extension and Hilbert bases are derived.
Rank and determinant share one fraction-free elimination, and Hermite bases
give lattice membership, coefficients and intersections.

This is the package's bottom layer: it imports nothing from ``toriclift``.

Pivot selection in the Smith reduction is fixed (smallest nonzero absolute
value, then lowest row, then lowest column) so that all derived data —
transforms, particular solutions, quotient coordinates — are deterministic
and can be pinned in golden tests.

Convention: vectors are tuples of ints.  ``IntMatrix`` rows/columns follow
the usual (row, col) indexing; matrix product via ``@``.  Maps of free
modules appear in two shapes and each call site says which: ``A @ x = b``
(columns act on coordinate columns) or row-vector form ``v @ X``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import gcd, prod
from operator import add, mul
from typing import Iterable, Iterator, Optional, Sequence


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed a configured size guard."""


Vec = tuple[int, ...]


def _as_vec(v: Iterable[int]) -> Vec:
    return tuple(map(int, v))


def vec_dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return sum(map(mul, a, b))


def primitive_vector(a: Sequence[int]) -> Vec:
    """Divide out the content; the zero vector stays zero."""
    g = gcd(*a)
    if g <= 1:
        return _as_vec(a)
    return tuple([x // g for x in a])


class IntMatrix:
    """Immutable integer matrix.

    Thin wrapper over a tuple of row tuples; supports ``@``, ``+``, scalar
    ``*``, transpose and hashing, which is all the engine needs.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Iterable[Iterable[int]], cols: Optional[int] = None):
        rows = tuple([tuple(map(int, row)) for row in data])
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_data", rows)

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), cols=n)

    def row(self, i: int) -> Vec:
        return self._data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self._data)

    def row_list(self) -> tuple[Vec, ...]:
        return self._data

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._data[i][j]

    def __iter__(self) -> Iterator[Vec]:
        return iter(self._data)

    @property
    def T(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self._data)) if self._data else ((),) * self.cols, cols=self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        bt = tuple(zip(*other._data)) if other._data else ((),) * other.cols
        return IntMatrix(
            tuple(tuple(sum(map(mul, r, c)) for c in bt) for r in self._data),
            cols=other.cols,
        )

    def apply(self, v: Sequence[int]) -> Vec:
        """Column action: self @ v for a coordinate column v."""
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        return tuple(sum(map(mul, r, v)) for r in self._data)

    def left_apply(self, v: Sequence[int]) -> Vec:
        """Row action: v @ self for a coordinate row v."""
        if len(v) != self.rows:
            raise ValueError("length mismatch")
        acc = [0] * self.cols
        for x, row in zip(v, self._data):
            if x:
                acc = list(map(add, acc, map(mul, repeat(x), row)))
        return tuple(acc)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(self._data, other._data)),
            cols=self.cols,
        )

    def __mul__(self, k: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(k * x for x in r) for r in self._data), cols=self.cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._data]!r})"

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self._data]


@dataclass(frozen=True)
class SNFDecomposition:
    """U @ A @ V = S with U, V unimodular and S in Smith normal form."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> Vec:
        n = min(self.S.rows, self.S.cols)
        return tuple(self.S[i, i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def invariant_factors(self) -> Vec:
        return tuple(d for d in self.diagonal if d != 0)


def _find_pivot(data: list[list[int]], k: int, m: int, n: int) -> Optional[tuple[int, int]]:
    # Fixed rule: smallest nonzero |entry|, ties by lowest row then lowest
    # column.  Entries are scanned in that order, so only a strictly smaller
    # |entry| replaces the best, and a 1 ends the scan.
    best = None
    least = 0
    for i in range(k, m):
        row = data[i]
        for j in range(k, n):
            v = row[j]
            if v:
                if v < 0:
                    v = -v
                if v < least or not least:
                    if v == 1:
                        return i, j
                    least = v
                    best = (i, j)
    return best


def smith_normal_form(A: IntMatrix) -> SNFDecomposition:
    """Smith normal form with both transforms.

    Returns S with nonnegative diagonal entries satisfying the divisibility
    chain s1 | s2 | ... ; deterministic for a given input by the fixed pivot
    rule.
    """
    m, n = A.rows, A.cols
    data = [list(r) for r in A.row_list()]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    for k in range(min(m, n)):
        while True:
            piv = _find_pivot(data, k, m, n)
            if piv is None:
                break
            i, j = piv
            if i != k:
                data[i], data[k] = data[k], data[i]
                U[i], U[k] = U[k], U[i]
            if j != k:
                for r in data:
                    r[j], r[k] = r[k], r[j]
                for r in V:
                    r[j], r[k] = r[k], r[j]
            pivot_row, pivot_u = data[k], U[k]
            p = pivot_row[k]
            # Clear column k below and row k to the right by Euclidean steps.
            dirty = False
            for i in range(k + 1, m):
                q = data[i][k] // p
                if q:
                    data[i] = [a - q * b for a, b in zip(data[i], pivot_row)]
                    U[i] = [a - q * b for a, b in zip(U[i], pivot_u)]
                if data[i][k]:
                    dirty = True
            for j in range(k + 1, n):
                q = pivot_row[j] // p
                if q:
                    for r in data:
                        r[j] -= q * r[k]
                    for r in V:
                        r[j] -= q * r[k]
                if pivot_row[j]:
                    dirty = True
            if dirty:
                continue
            # Row/col clean; enforce divisibility of the remaining block.
            offender = None
            for i in range(k + 1, m):
                for x in data[i][k + 1:]:
                    if x % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            data[k] = [a + b for a, b in zip(pivot_row, data[offender])]
            U[k] = [a + b for a, b in zip(pivot_u, U[offender])]
        if piv is None:
            break

    for k in range(min(m, n)):
        if data[k][k] < 0:
            data[k] = [-a for a in data[k]]
            U[k] = [-a for a in U[k]]

    return SNFDecomposition(
        U=IntMatrix(U, cols=m),
        S=IntMatrix(data, cols=n),
        V=IntMatrix(V, cols=n),
    )


def _bareiss(A: IntMatrix) -> tuple[int, int]:
    """Rank over the rationals and signed last pivot, by fraction-free
    (Bareiss) elimination.

    A column with no nonzero entry at or below the next pivot row is skipped;
    every division is exact, because each entry is a minor of A.  For a
    square A of full rank the last pivot is the determinant of A with its
    rows swapped as the pivots were, so the pivot times the swaps' sign is
    det A.
    """
    a = [list(r) for r in A.row_list()]
    m, n = A.rows, A.cols
    rank = 0
    prev = 1
    sign = 1
    for j in range(n):
        if rank == m:
            break
        i = next((i for i in range(rank, m) if a[i][j] != 0), None)
        if i is None:
            continue
        if i != rank:
            a[rank], a[i] = a[i], a[rank]
            sign = -sign
        top = a[rank]
        p = top[j]
        for row in a[rank + 1:]:
            f = row[j]
            for k in range(j + 1, n):
                row[k] = (row[k] * p - f * top[k]) // prev
        prev = p
        rank += 1
    return rank, sign * prev


def determinant(A: IntMatrix) -> int:
    """Exact determinant, by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    rank, det = _bareiss(A)
    return det if rank == A.rows else 0


def matrix_rank(A: IntMatrix) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination."""
    return _bareiss(A)[0]


@dataclass(frozen=True)
class IntegerSolution:
    """All integer solutions of A @ x = b: particular + kernel lattice basis."""

    particular: Vec
    kernel_basis: tuple[Vec, ...]


def solve_integer_linear(A: IntMatrix, b: Sequence[int]) -> Optional[IntegerSolution]:
    """Solve A @ x = b over Z.

    Returns None when no integral solution exists.  With the Smith form
    U @ A @ V = S, x = V @ y for S @ y = U @ b: y_i = (U @ b)_i / s_i below
    the rank, and every other entry of U @ b must vanish.  The particular
    solution and the kernel basis (columns of V past the rank) are
    deterministic.
    """
    m, n = A.rows, A.cols
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    snf = smith_normal_form(A)
    c = snf.U.apply(b)
    y = [0] * n
    for i in range(m):
        s = snf.S[i, i] if i < n else 0
        if s:
            y[i], rem = divmod(c[i], s)
            if rem:
                return None
        elif c[i]:
            return None
    kernel = tuple(snf.V.col(j) for j in range(snf.rank, n))
    return IntegerSolution(particular=snf.V.apply(y), kernel_basis=kernel)


def scaled_inverse(m: IntMatrix, d: int) -> IntMatrix:
    """d * m^-1 for a nonsingular square m whose invariant factors all divide
    d: from the Smith form U @ m @ V = S, m^-1 = V @ S^-1 @ U, so
    d * m^-1 = V @ diag(d / s_i) @ U.  With d = det(m) this is the adjugate
    of m; with d = 1 the inverse of a unimodular m."""
    snf = smith_normal_form(m)
    scaled = (tuple(d // s * x for x in row) for s, row in zip(snf.diagonal, snf.U))
    return snf.V @ IntMatrix(scaled, cols=m.rows)


def kernel_basis(A: IntMatrix) -> tuple[Vec, ...]:
    """Basis of the integer kernel {x : A @ x = 0}."""
    sol = solve_integer_linear(A, (0,) * A.rows)
    assert sol is not None
    return sol.kernel_basis


# ---------------------------------------------------------------------------
# Finitely generated abelian groups and their homomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FgAbGroup:
    """Canonical form Z^free_rank + sum of Z/k with k in a divisibility chain.

    Coordinates of an element: first the torsion coordinates (in the order of
    ``torsion``), then the free coordinates.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(k < 2 for k in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    @property
    def n_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    def reduce(self, coords: Sequence[int]) -> Vec:
        """Canonical representative: torsion coordinates mod their orders."""
        if len(coords) != self.n_generators:
            raise ValueError("coordinate length mismatch")
        t = len(self.torsion)
        return tuple(c % k for c, k in zip(coords[:t], self.torsion)) + tuple(coords[t:])

    def is_zero_element(self, coords: Sequence[int]) -> bool:
        return not any(self.reduce(coords))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{k}" for k in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


class CokernelData:
    """Cokernel of a map of free modules, with explicit coordinates.

    For ``A`` (columns = images of the domain basis) this presents
    Z^rows / columnspace(A) in canonical form and provides:

    * ``group`` — the FgAbGroup;
    * ``project(v)`` — coordinates of the class of ``v``;
    * ``generator_lifts`` — vectors in Z^rows projecting to the standard
      generators, in coordinate order.
    """

    def __init__(self, A: IntMatrix):
        snf = smith_normal_form(A)
        m = A.rows
        diag = list(snf.diagonal) + [0] * (m - min(A.rows, A.cols))
        torsion_idx = [i for i in range(m) if diag[i] >= 2]
        free_idx = [i for i in range(m) if diag[i] == 0]
        # Sign-normalize the free functionals so coordinates are canonical.
        signs = {}
        for i in free_idx:
            row = snf.U.row(i)
            lead = next((x for x in row if x != 0), 1)
            signs[i] = 1 if lead > 0 else -1
        self._snf = snf
        self._m = m
        self._torsion_idx = torsion_idx
        self._free_idx = free_idx
        self._signs = signs
        self.group = FgAbGroup(
            free_rank=len(free_idx), torsion=tuple(diag[i] for i in torsion_idx)
        )

    @cached_property
    def generator_lifts(self) -> tuple[Vec, ...]:
        """The columns of U^-1, signed like the coordinates."""
        U_inv = scaled_inverse(self._snf.U, 1)
        return tuple(
            tuple(self._signs.get(i, 1) * x for x in U_inv.col(i))
            for i in self._torsion_idx + self._free_idx
        )

    def project(self, v: Sequence[int]) -> Vec:
        if len(v) != self._m:
            raise ValueError("length mismatch")
        y = self._snf.U.apply(v)
        tor = tuple(
            y[i] % self._snf.S[i, i] for i in self._torsion_idx
        )
        free = tuple(self._signs[i] * y[i] for i in self._free_idx)
        return tor + free


@dataclass(frozen=True)
class AbHom:
    """Homomorphism between finitely generated abelian groups.

    ``matrix`` rows are images of the domain generators in codomain
    coordinates (row-vector action: coords @ matrix, then reduce).
    Well-definedness on torsion generators is checked at construction.
    """

    domain: FgAbGroup
    codomain: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.domain.n_generators:
            raise ValueError("matrix rows must match domain generators")
        if self.matrix.cols != self.codomain.n_generators:
            raise ValueError("matrix cols must match codomain generators")
        for i, k in enumerate(self.domain.torsion):
            if not self.codomain.is_zero_element([k * x for x in self.matrix.row(i)]):
                raise ValueError(
                    f"not a homomorphism: order-{k} generator {i} maps to an element "
                    f"whose {k}-multiple is nonzero"
                )


# ---------------------------------------------------------------------------
# Lattice (subgroup of Z^n) arithmetic via Hermite bases
# ---------------------------------------------------------------------------


def hermite_row_basis(rows: Iterable[Sequence[int]], width: Optional[int] = None) -> tuple[Vec, ...]:
    """Canonical row-echelon (Hermite) basis of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are dropped.  The result is the unique canonical basis, so two
    generating sets span the same lattice iff their Hermite bases are equal.
    """
    mat = [list(_as_vec(r)) for r in rows]
    if mat:
        width = len(mat[0])
        if any(len(r) != width for r in mat):
            raise ValueError("ragged rows")
    elif width is None:
        raise ValueError("width required for empty generating set")
    n = width
    basis: list[list[int]] = []
    pivot_cols: list[int] = []
    for row in mat:
        row = list(row)
        # Reduce against existing pivots left to right, inserting new pivots.
        while True:
            # find leftmost nonzero
            lead = next((c for c in range(n) if row[c] != 0), None)
            if lead is None:
                break
            # find insertion point among pivot columns
            pos = 0
            while pos < len(pivot_cols) and pivot_cols[pos] < lead:
                pos += 1
            if pos < len(pivot_cols) and pivot_cols[pos] == lead:
                b = basis[pos]
                g = gcd(row[lead], b[lead])
                # Combine so the pivot row gets gcd, row gets 0 (extended gcd).
                x0, y0 = _exgcd(b[lead], row[lead])
                newpivot = [x0 * bb + y0 * rr for bb, rr in zip(b, row)]
                factor_b = b[lead] // g
                factor_r = row[lead] // g
                row = [rr * factor_b - bb * factor_r for bb, rr in zip(b, row)]
                basis[pos] = newpivot
                continue
            basis.insert(pos, row)
            pivot_cols.insert(pos, lead)
            break
    # Normalize: positive pivots, reduce entries above each pivot.
    for i in range(len(basis)):
        if basis[i][pivot_cols[i]] < 0:
            basis[i] = [-x for x in basis[i]]
    # Ascending pivot order: step i fixes column pivot_cols[i] for good, since
    # later steps only modify strictly larger columns.
    for i in range(len(basis)):
        p = pivot_cols[i]
        pv = basis[i][p]
        for t in range(i):
            q = basis[t][p] // pv
            if q:
                basis[t] = [a - q * b for a, b in zip(basis[t], basis[i])]
    return tuple(tuple(r) for r in basis)


def _exgcd(a: int, b: int) -> tuple[int, int]:
    """x, y with a*x + b*y = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def hermite_coefficients(h: Sequence[Vec], v: Sequence[int]) -> Optional[Vec]:
    """Coefficients c with c @ h = v for a Hermite basis ``h``, or None.

    The rows of a Hermite basis are independent and every later row vanishes
    in a row's pivot column, so back-substitution in pivot order finds the
    unique coefficients, or a remainder proving there are none.
    """
    r = list(_as_vec(v))
    n = len(r)
    coeffs = []
    for row in h:
        if len(row) != n:
            raise ValueError("length mismatch")
        lead = next(c for c in range(n) if row[c] != 0)
        q, rem = divmod(r[lead], row[lead])
        if rem:
            return None
        if q:
            r = [a - q * b for a, b in zip(r, row)]
        coeffs.append(q)
    return None if any(r) else tuple(coeffs)


# ---------------------------------------------------------------------------
# Homomorphism extension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomExtension:
    """Extensions of a homomorphism prescribed on a subgroup of Z^n.

    ``particular`` is one extension X (n x k, row-vector action v @ X) and
    ``kernel`` an n x d matrix N whose independent columns span the integer
    kernel of the subgroup basis B (B @ N = 0); the extensions are exactly
    X + N @ T over integer d x k matrices T.  With B's Smith form
    U @ B @ V = S of rank r, N is V past column r, so V^-1 @ (X + N @ T)
    stacks the r rows of ``fixed`` above T: row i of ``fixed`` is every
    extension's value on (U @ B)_i / s_i, which is row i of V^-1.
    """

    particular: IntMatrix
    kernel: IntMatrix
    fixed: IntMatrix


@dataclass(frozen=True)
class ExtensionObstruction:
    """Certificate that no extension to the ambient lattice exists.

    ``multiplier * phi(element) = required`` has no integral ``phi(element)``:
    ``element`` lies in the ambient lattice, its ``multiplier``-th multiple in
    the subgroup, and ``required`` (the forced value on that multiple) is not
    divisible by ``multiplier``.  The lifting decision reports the same
    three facts with ``element`` read back as a target divisor: no additive
    extension of the forced Cartier pullbacks exists.
    """

    multiplier: int
    element: Vec
    required: Vec


def extend_homomorphism(
    subgroup_basis: IntMatrix, values: IntMatrix
) -> tuple[Optional[HomExtension], Optional[ExtensionObstruction]]:
    """Extend ``basis row i -> values row i`` to all of Z^ambient.

    Solves B @ X = W for X (ambient x codomain).  Returns (extension, None)
    or (None, obstruction).  Raises ValueError when the prescribed values are
    inconsistent on relations among the given rows.
    """
    B, W = subgroup_basis, values
    if B.rows != W.rows:
        raise ValueError("one value row per basis row required")
    n, k = B.cols, W.cols
    snf = smith_normal_form(B)
    Wp = snf.U @ W  # rows: s_i * Y_i = Wp_i
    Y = [[0] * k for _ in range(n)]
    for i in range(B.rows):
        s = snf.S[i, i] if i < min(B.rows, n) else 0
        row = Wp.row(i)
        if s == 0:
            if any(row):
                raise ValueError("prescribed values are inconsistent on a relation")
            continue
        if any(x % s for x in row):
            # U @ B = S @ V^-1: row i of U @ B, a subgroup member with
            # prescribed value Wp row i, is s times a lattice element.
            element = tuple(x // s for x in B.left_apply(snf.U.row(i)))
            return None, ExtensionObstruction(multiplier=s, element=element, required=row)
        Y[i] = [x // s for x in row]
    X = snf.V @ IntMatrix(Y, cols=k)
    rank = snf.rank
    N = IntMatrix((row[rank:] for row in snf.V), cols=n - rank)
    return HomExtension(particular=X, kernel=N, fixed=IntMatrix(Y[:rank], cols=k)), None


# ---------------------------------------------------------------------------
# Hilbert basis of (row lattice) intersect nonnegative orthant
# ---------------------------------------------------------------------------

MAX_HILBERT_POINTS = 500_000


def _pulling_triangulation(
    rays: Sequence[Vec], images: Sequence[Vec], cone: tuple[int, ...], dim: int
) -> Iterator[tuple[int, ...]]:
    """Simplices, as index tuples into ``rays``, covering the ``dim``-dimensional
    cone spanned by the rays ``cone``: the cone itself when it has ``dim`` rays,
    else its first ray joined to the triangulation of each facet not through
    that ray.  Such a facet is the set of rays whose images vanish on an
    ambient coordinate positive on the first ray, when that set has rank
    ``dim - 1``."""
    if len(cone) == dim:
        yield cone
        return
    apex, seen = cone[0], set()
    for j, x in enumerate(images[apex]):
        if x == 0:
            continue
        facet = tuple(i for i in cone if images[i][j] == 0)
        if facet not in seen and matrix_rank(IntMatrix([rays[i] for i in facet])) == dim - 1:
            seen.add(facet)
            for simplex in _pulling_triangulation(rays, images, facet, dim - 1):
                yield (apex,) + simplex


def _parallelepiped_points(images: Sequence[int], U: IntMatrix, s: Vec) -> list[int]:
    """Packed lattice points of the half-open parallelepiped of a simplex,
    given its rays' packed ``images`` and the Smith form U @ G @ V = S of its
    ray matrix G, with invariant factors ``s``.

    The points are lambda @ images for lambda = (t / s) @ U mod 1 with t_i in
    [0, s_i): the group Z^dim / (row lattice of G), walked in mixed radix over
    the factors above 1.  A state is one int: the packed point above fields of
    v bits holding d * lambda, d = s_last, each in [0, d).  A step adds one
    factor's generator to both; each lambda field that reaches d wraps, which
    takes d from it and that ray's image from the point, in one subtraction
    per pattern of wrapped fields.  A lambda field holds less than
    2 * d <= 2^v, so no step carries between lambda fields.  The point's
    fields may carry midway through a step; its subtraction undoes that, as
    packed sums are exact integer sums.
    """
    n = len(images)
    d = s[-1]
    v = d.bit_length() + 1
    shift = n * v
    half = 1 << (v - 1)  # at least d: a field reaches d iff adding half - d sets its top bit
    offset = sum((half - d) << (j * v) for j in range(n))
    tops = sum(half << (j * v) for j in range(n))
    wraps: dict[int, int] = {}
    states = [0]
    for si, row in zip(s, U):
        if si == 1:
            continue
        lam = [d // si * u % d for u in row]
        step = sum(map(mul, lam, images)) // d << shift | sum(x << (j * v) for j, x in enumerate(lam))
        walked = []
        for state in states:
            for _ in range(si):
                walked.append(state)
                state += step
                wrapped = (state + offset) & tops
                if wrapped:
                    if wrapped not in wraps:
                        js = [j for j in range(n) if wrapped >> (j * v) & half]
                        wraps[wrapped] = sum(images[j] for j in js) << shift | sum(d << (j * v) for j in js)
                    state -= wraps[wrapped]
        states = walked
    return [state >> shift for state in states]


def hilbert_basis(h: Sequence[Vec], rays: Sequence[Vec]) -> tuple[Vec, ...]:
    """Minimal generating set of (lattice) intersect (nonnegative orthant),
    given the lattice's Hermite basis ``h`` and the primitive extreme rays of
    its effective cone {c : c @ h >= 0} (``DivisorSubgroup.effective_cone_rays``).

    The semigroup of nonnegative lattice vectors is finitely generated; this
    returns its unique minimal generators sorted by (coordinate sum, lex).
    Each is the image of an effective-cone ray or a lattice point of the
    half-open fundamental parallelepiped of a simplex of a triangulation of
    that cone (Bruns-Gubeladze, *Polytopes, Rings, and K-Theory*, 2.C); a
    sieve keeps the irreducible ones.  The parallelepiped points are
    counted, and guarded, before any is listed.  The full lattice takes the
    same path: its one simplex has Smith factors all 1 and no parallelepiped
    point, so it gives the unit vectors.

    Every candidate is one int: its coordinates in fields of w bits, the
    first coordinate highest, under a top field holding the coordinate sum.
    No candidate coordinate exceeds a column sum of one simplex's ray images,
    and w leaves the top bit of every field clear for all of them.  So int
    order is (sum, lex) order, and q <= p in every coordinate iff
    ``((p | high) - q) & high == high``, ``high`` the fields' top bits: no
    field borrows from the next.  A simplex's points are listed by walking
    the group Z^dim / (simplex lattice) in mixed radix over its Smith
    factors, as Normaliz does (Bruns-Ichim, *J. Algebra* 324, 2010), with
    one addition per point and one subtraction per wrapped coordinate
    pattern (``_parallelepiped_points``).
    """
    if not rays:
        return ()
    width = len(h[0])
    basis = IntMatrix(h)
    images = [basis.left_apply(c) for c in rays]
    limit = MAX_HILBERT_POINTS
    total = 0
    simplices = []
    dim = matrix_rank(IntMatrix(rays))
    for simplex in _pulling_triangulation(rays, images, tuple(range(len(rays))), dim):
        # U @ G @ V = S: lambda @ G is integral for lambda = (t / s) @ U, t_i in [0, s_i)
        snf = smith_normal_form(IntMatrix([rays[i] for i in simplex]))
        s = snf.invariant_factors
        total += prod(s)
        if total > limit:
            raise ResourceLimitError(
                f"Hilbert basis parallelepiped points reached {total}, past guard {limit}: "
                f"MAX_HILBERT_POINTS = {limit} in toriclift.lattice, "
                f"no flag overrides it"
            )
        simplices.append((simplex, snf.U, s))
    # every ray is a vertex of some simplex, so this bounds the images too
    top = max(sum(col) for simplex, _, _ in simplices for col in zip(*(images[i] for i in simplex)))
    w = top.bit_length() + 1

    def pack(v: Vec) -> int:
        p = sum(v)
        for x in v:
            p = p << w | x
        return p

    packed = [pack(v) for v in images]
    candidates = set(packed)
    for simplex, U, s in simplices:
        candidates.update(_parallelepiped_points([packed[i] for i in simplex], U, s))
    candidates.discard(0)
    high = sum(1 << (c * w + w - 1) for c in range(width))
    kept: list[int] = []
    for p in sorted(candidates):
        # p - q is a nonnegative lattice vector, nonzero as q comes first
        p_high = p | high
        for q in kept:
            if (p_high - q) & high == high:
                break
        else:
            kept.append(p)
    mask = (1 << w) - 1
    return tuple(tuple(p >> (c * w) & mask for c in reversed(range(width))) for p in kept)
