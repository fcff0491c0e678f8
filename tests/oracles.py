"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written differently from the package code:
brute force enumeration, randomized reduction orders, rational arithmetic
via fractions.  Slow is fine; these only run on small instances.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

Vec = tuple[int, ...]


# -- Smith normal form, randomized pivot order ------------------------------


def snf_diagonal_randomized(rows: Sequence[Sequence[int]], seed: int) -> list[int]:
    """Invariant factors computed with a randomly seeded pivot strategy.

    No transform bookkeeping; row/column operations applied to a mutable
    matrix until diagonal, then the divisibility chain is fixed up.  The
    pivot at each step is chosen at random among the minimal-absolute-value
    nonzero entries, so agreement with the package's fixed pivot rule is
    evidence the diagonal is a true invariant.
    """
    rng = random.Random(seed)
    a = [[int(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag: list[int] = []
    top = 0
    while top < m and top < n:
        entries = [
            (abs(a[i][j]), i, j)
            for i in range(top, m)
            for j in range(top, n)
            if a[i][j] != 0
        ]
        if not entries:
            break
        best = min(e[0] for e in entries)
        _, pi, pj = rng.choice([e for e in entries if e[0] == best])
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        p = a[top][top]
        dirty = False
        for i in range(top + 1, m):
            q = a[i][top] // p
            if q:
                for j in range(top, n):
                    a[i][j] -= q * a[top][j]
            if a[i][top] != 0:
                dirty = True
        for j in range(top + 1, n):
            q = a[top][j] // p
            if q:
                for i in range(top, m):
                    a[i][j] -= q * a[i][top]
            if a[top][j] != 0:
                dirty = True
        if dirty:
            continue
        # pivot must also divide the remaining block
        bad = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(top, n):
                a[top][j] += a[bad][j]
            continue
        diag.append(abs(p))
        top += 1
    return diag


# -- brute force lattice membership and Hilbert bases ------------------------


def lattice_points_from_basis(
    basis: Sequence[Vec], coeff_bound: int
) -> set[Vec]:
    """All integer combinations with coefficients in [-bound, bound]."""
    if not basis:
        return {()}
    width = len(basis[0])
    pts: set[Vec] = set()
    for coeffs in itertools.product(
        range(-coeff_bound, coeff_bound + 1), repeat=len(basis)
    ):
        v = tuple(
            sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(width)
        )
        pts.add(v)
    return pts


def in_lattice_bruteforce(v: Vec, basis: Sequence[Vec], coeff_bound: int) -> bool:
    return tuple(v) in lattice_points_from_basis(basis, coeff_bound)


def hilbert_basis_bruteforce(
    basis: Sequence[Vec], box: int
) -> list[Vec]:
    """Irreducible nonzero lattice points of (lattice ∩ nonnegative orthant)
    inside the cube [0, box]^width.

    Only correct when the true Hilbert basis fits inside the cube; callers
    pick ``box`` generously for the small cases under test.
    """
    width = len(basis[0]) if basis else 0
    members = {
        p
        for p in lattice_points_from_basis(basis, 4 * box + 4)
        if all(0 <= x <= box for x in p) and any(x != 0 for x in p)
    }
    irreducible = []
    for p in sorted(members, key=lambda q: (sum(q), q)):
        reducible = False
        for q in members:
            if q == p:
                continue
            r = tuple(a - b for a, b in zip(p, q))
            if all(x >= 0 for x in r) and (r in members or all(x == 0 for x in r)):
                reducible = True
                break
        if not reducible:
            irreducible.append(p)
    return irreducible


# -- rational cone geometry ---------------------------------------------------


def solve_rational(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> list[Fraction] | None:
    """One rational solution of matrix @ x = rhs by Gaussian elimination."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = a[i][n]
    return x


def in_cone_bruteforce(v: Vec, gens: Sequence[Vec], denom_bound: int = 24) -> bool:
    """Is v a nonnegative rational combination of gens?  Decided by checking
    all subsets of generators of size <= dim for a nonnegative solution
    (Carathéodory), exactly over Q."""
    if all(x == 0 for x in v):
        return True
    if not gens:
        return False
    width = len(v)
    for k in range(1, min(len(gens), width) + 1):
        for sub in itertools.combinations(gens, k):
            cols = [[sub[j][i] for j in range(k)] for i in range(width)]
            sol = solve_rational(cols, list(v))
            if sol is not None and all(c >= 0 for c in sol):
                # confirm the residual really vanished (solve is exact)
                return True
    return False


def dual_rays_bruteforce(normals: Sequence[Vec], dim: int, box: int = 3) -> set[Vec]:
    """Primitive generators of {u : <n,u> >= 0 for all n} found by scanning
    an integer box and keeping primitive non-reducible directions.  Returns
    the set of primitive points in the cone within the box (not only extreme
    rays) — used for containment cross-checks, not for exact ray lists."""
    out = set()
    for p in itertools.product(range(-box, box + 1), repeat=dim):
        if all(x == 0 for x in p):
            continue
        if all(sum(a * b for a, b in zip(n, p)) >= 0 for n in normals):
            from math import gcd

            g = 0
            for x in p:
                g = gcd(g, abs(x))
            out.add(tuple(x // g for x in p))
    return out


def hnf_rowspace_bruteforce(rows: Sequence[Vec], coeff_bound: int = 5) -> set[Vec]:
    """Sample of the row lattice, for equality checks between two bases."""
    return lattice_points_from_basis(rows, coeff_bound)


# -- lifting's containment stage, as one dense stacked system -----------------


def containment_dense(X, kernels, lattice_rows, zero_cells, k, n_src):
    """Reference for the lifting containment stage: one integer system whose
    unknowns are the kernel coefficients t plus, for every subgroup basis
    row, its coefficients over the containment lattice.

    Returns (particular t, Hermite basis of the t-directions) or None.  The
    package reads the same question off the extension's Smith form: one
    membership test per fixed row, then the support equations over the
    lattice coordinates of T; ``_ProjectedContainment`` below answers it in
    cokernel coordinates.  This dense form needs one Smith form of a
    (k * n_src) x (A + k * L) matrix, so it only suits small instances.
    """
    from toriclift.lattice import IntMatrix, hermite_row_basis, solve_integer_linear

    A = len(kernels)
    L = len(lattice_rows)
    n_unknowns = A + k * L
    rows: list[list[int]] = []
    rhs: list[int] = []
    for j in range(k):
        for r in range(n_src):
            row = [K[j, r] for K in kernels]
            row += [0] * (k * L)
            for b in range(L):
                row[A + j * L + b] = -lattice_rows[b][r]
            rows.append(row)
            rhs.append(-X[j, r])
    for coeffs, ray_i in zero_cells:
        row = [sum(coeffs[j] * K[j, ray_i] for j in range(k)) for K in kernels]
        row += [0] * (k * L)
        rows.append(row)
        rhs.append(-sum(coeffs[j] * X[j, ray_i] for j in range(k)))
    if n_unknowns == 0:
        if all(v == 0 for v in rhs):
            return (), []
        return None
    sol = solve_integer_linear(IntMatrix(rows, cols=n_unknowns), rhs)
    if sol is None:
        return None
    t_dirs = hermite_row_basis([kv[:A] for kv in sol.kernel_basis], width=A)
    return sol.particular[:A], list(t_dirs)


# -- lifting's containment stage in cokernel coordinates -----------------------
#
# The routine lifting used before it read containment off the extension's
# Smith form: every row's class in the cokernel of the source subgroup, one
# equation per free coordinate and one multiplier per torsion coordinate.

from toriclift.lattice import (  # noqa: E402
    CokernelData,
    IntMatrix,
    hermite_row_basis,
    solve_integer_linear,
    vec_dot,
)


def is_identity_basis(h: Sequence[Vec], width: int) -> bool:
    """Whether the Hermite basis ``h`` is that of all of Z^width: the identity."""
    return tuple(h) == tuple(tuple(int(i == j) for j in range(width)) for i in range(width))


def effective_cone_rays(h: Sequence[Vec]) -> tuple[Vec, ...]:
    """Primitive extreme rays of {c : c @ h >= 0} for a Hermite basis ``h``,
    lex-sorted, by one double description: what
    ``DivisorSubgroup.effective_cone_rays`` returns for a subgroup with
    basis ``h``, read off a raw basis with no fan behind it."""
    from toriclift.polyhedra import dual_description

    if not h:
        return ()
    lines, rays = dual_description([tuple(row[j] for row in h) for j in range(len(h[0]))], len(h))
    assert not lines, "coefficient cone of an independent basis is pointed"
    return rays


class _ProjectedContainment:
    """The containment stage in the cokernel C = Z^n / lattice.

    The extended values are phi = X + N @ T over integer d x n matrices T,
    whose entries T[i, c], read row by row, are the unknowns t.  Row j of
    phi lies in the lattice iff its class in C vanishes, i.e.
    sum_{i,c} N[j, i] T[i, c] pi(e_c) = -pi(X row j) in C: an equation over Z
    per free coordinate of C, and per torsion coordinate of order m a
    congruence mod m, which becomes an equation with one multiplier unknown
    for that row and coordinate.  ``blocks[j]`` holds row j's equations as
    pairs (coefficients over t, right-hand side), torsion coordinates first.

    The feasible t are those of the dense system that stacks every lattice
    coefficient of every row as an unknown, so the Hermite basis of their
    directions is the same canonical lattice; only the particular t may
    differ, by an element of that lattice.
    """

    def __init__(self, X: IntMatrix, N: IntMatrix, lattice_rows: Sequence[Vec]):
        """``N`` is k x d with independent columns, k = ``X.rows``;
        ``lattice_rows`` is the Hermite basis of the lattice in Z^n,
        n = ``X.cols``."""
        self.X = X
        self.N = N
        n = X.cols
        self.n_unknowns = N.cols * n
        # the Hermite basis of Z^n is the identity: C is trivial, nothing to solve
        if is_identity_basis(lattice_rows, n):
            self.torsion: tuple[int, ...] = ()
            self.blocks: list[list[tuple[Vec, int]]] = [[] for _ in range(X.rows)]
            return
        columns = [[row[i] for row in lattice_rows] for i in range(n)]
        coker = CokernelData(IntMatrix(columns, cols=len(lattice_rows)))
        self.torsion = coker.group.torsion
        orders = self.torsion + (0,) * coker.group.free_rank
        units = [coker.project(tuple(int(c == r) for r in range(n))) for c in range(n)]
        # pi(a e_c) = a pi(e_c), torsion coordinates reduced as project does
        self.blocks = []
        for j in range(X.rows):
            x = coker.project(X.row(j))
            self.blocks.append([
                (tuple(a * u[g] % m if m else a * u[g] for a in N.row(j) for u in units), -x[g])
                for g, m in enumerate(orders)
            ])

    def solve(
        self, zero_cells: Sequence[tuple[Vec, int]]
    ) -> Optional[tuple[Vec, list[Vec]]]:
        """Solve every row's containment jointly, plus the zero-forcing
        equations (generator coefficients, source ray) of the support
        condition.  Returns the particular t and the Hermite basis of the
        t-directions of the solution set, or None when infeasible."""
        n = self.X.cols
        extra = []
        for coeffs, ray_i in zero_cells:
            # phi[., ray_i] only involves the unknowns T[., ray_i]
            row = [0] * self.n_unknowns
            row[ray_i::n] = self.N.left_apply(coeffs)
            extra.append((row, -vec_dot(coeffs, self.X.col(ray_i))))
        return self._solve(self.blocks, extra)

    def failing_rows(self) -> tuple[int, ...]:
        """Indices of the rows whose containment fails on its own."""
        return tuple(
            j for j, block in enumerate(self.blocks) if self._solve([block], []) is None
        )

    def shift(self, t: Sequence[int]) -> IntMatrix:
        """N @ T for the unknowns t."""
        n = self.X.cols
        T = IntMatrix((t[i * n:(i + 1) * n] for i in range(self.N.cols)), cols=n)
        return self.N @ T

    def _solve(self, blocks, extra) -> Optional[tuple[Vec, list[Vec]]]:
        A = self.n_unknowns
        tau = len(self.torsion)
        n_unknowns = A + len(blocks) * tau
        rows: list[list[int]] = []
        rhs: list[int] = []
        for j, block in enumerate(blocks):
            for c, (coeffs, b) in enumerate(block):
                row = list(coeffs) + [0] * (n_unknowns - A)
                if c < tau:
                    row[A + j * tau + c] = -self.torsion[c]
                rows.append(row)
                rhs.append(b)
        for coeffs, b in extra:
            rows.append(list(coeffs) + [0] * (n_unknowns - A))
            rhs.append(b)
        sol = solve_integer_linear(IntMatrix(rows, cols=n_unknowns), rhs)
        if sol is None:
            return None
        t_part = sol.particular[:A]
        t_dirs = hermite_row_basis([kv[:A] for kv in sol.kernel_basis], width=A)
        return t_part, list(t_dirs)


# -- exceptional collections, every coordinate subset in size order -------------


def exceptional_collections_bruteforce(
    max_cones: Sequence[Sequence[int]], coordinates: Sequence[Vec]
) -> tuple[tuple[int, ...], ...]:
    """Reference for ``presentation.exceptional_collections``: try every
    subset of the coordinates that miss some cone, smallest first, and keep
    those whose missed cones cover all cones and that contain no set kept
    before.  Exponential in the number of coordinates."""
    n_cones = len(max_cones)
    if n_cones == 0:
        return ()
    supports = [frozenset(j for j, x in enumerate(w) if x > 0) for w in coordinates]
    missed = [
        frozenset(ci for ci, cone in enumerate(max_cones) if not supp & set(cone))
        for supp in supports
    ]
    useful = [i for i, m in enumerate(missed) if m]
    everything = frozenset(range(n_cones))
    found: list[tuple[int, ...]] = []
    for size in range(1, len(useful) + 1):
        for combo in itertools.combinations(useful, size):
            if any(set(f) <= set(combo) for f in found):
                continue
            if frozenset().union(*(missed[i] for i in combo)) == everything:
                found.append(combo)
    return tuple(sorted(found))


# -- fan validation: the pairwise common-face test by double description -------


def morphism_problems_by_containment(source, target, matrix) -> list[str]:
    """Reference for ``lifting.validate_toric_morphism``'s problems: the
    per-cone test it ran before it located each ray image once.

    A source max cone is accepted iff the facet description of some target
    max cone holds the images of all its rays, or, for the fan of the torus
    with no max cone, iff every image is zero.
    """
    problems = []
    for cone in source.max_cones:
        images = [matrix.apply(source.rays[i]) for i in cone]
        if target.max_cones:
            fits = any(all(h.contains(w) for w in images) for h in target.cone_hreps)
        else:
            fits = not any(x for w in images for x in w)
        if not fits:
            problems.append(
                f"image of source max cone {list(cone)} (rays "
                f"{[list(source.rays[i]) for i in cone]}) lies in no target cone"
            )
    return problems


def common_face_by_double_description(fan, a: int, b: int) -> bool:
    """Reference for ``fan._meet_in_common_face``: the test ``validate_fan``
    ran on every pair of max cones before the cheap separator.

    ``a`` and ``b`` index two strongly convex max cones of ``fan``, neither
    inside the other.  One double description gives the cone of functionals
    u >= 0 on a and u <= 0 on b; the sum u of its extreme rays lies in its
    relative interior, and a and b meet in a common face iff a's rays and
    b's rays on u's hyperplane are the same and each lies in the other cone.
    """
    from toriclift.polyhedra import dual_description

    ca, cb = fan.max_cones[a], fan.max_cones[b]
    ha, hb = fan.cone_hreps[a], fan.cone_hreps[b]
    normals = [fan.rays[i] for i in ca] + [tuple(-x for x in fan.rays[i]) for i in cb]
    _, qrays = dual_description(normals, fan.rank)
    u = [sum(q[j] for q in qrays) for j in range(fan.rank)]
    ta = [i for i in ca if sum(x * y for x, y in zip(u, fan.rays[i])) == 0]
    tb = [i for i in cb if sum(x * y for x, y in zip(u, fan.rays[i])) == 0]
    ok = all(hb.contains(fan.rays[i]) for i in ta) and all(
        ha.contains(fan.rays[i]) for i in tb
    )
    return ok and set(ta) == set(tb)


def locate_by_facets(fan, point) -> tuple[int, ...] | None:
    """Reference for ``Fan.locate``: the per-facet dot loop it ran before it
    read the fan's ray-facet incidences.

    The minimal cone holding the point is the face of the first max cone
    holding it cut out by the facets tight on it: the rays of that max cone
    on every tight facet.  Only the zero vector lies in the cone of no ray.
    """
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    for cone, h in zip(fan.max_cones, fan.cone_hreps):
        if h.contains(point):
            tight = [u for u in h.inequalities if dot(u, point) == 0]
            return tuple(i for i in cone if all(dot(u, fan.rays[i]) == 0 for u in tight))
    return None if any(point) else ()


def extreme_rays(h, dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(lines, extreme rays) of the cone with H-description ``h``, canonical
    and primitive.

    Reference for ``validate_fan``'s tests of strong convexity and
    extremality on the ray-facet incidences: the second double description
    each non-simplicial max cone took before they were read off its facet
    description.
    """
    from toriclift.polyhedra import dual_description

    normals = list(h.inequalities)
    for e in h.equations:
        normals.append(e)
        normals.append(tuple(-x for x in e))
    return dual_description(normals, dim)


# -- enough effective divisors: one double description per max cone -----------


def minimal_lattice_multiple(basis: Sequence[Vec], direction: Vec) -> Vec:
    """Smallest positive multiple of ``direction`` in the row lattice of
    ``basis``, read off the one-dimensional integer kernel of
    (c, k) -> c @ basis - k * direction by a Smith form.

    ``direction`` must lie in the rational span of the basis rows.
    """
    from toriclift.lattice import IntMatrix, kernel_basis

    cols = [[row[j] for row in basis] + [-direction[j]] for j in range(len(direction))]
    ker = kernel_basis(IntMatrix(cols, cols=len(basis) + 1))
    assert len(ker) == 1, "direction must lie in the span of the basis"
    k = abs(ker[0][-1])
    assert k != 0
    return tuple(k * x for x in direction)


def enough_divisors_per_cone(sub) -> tuple:
    """Reference for ``divisors.enough_divisors``: the witnesses of every max
    cone, each from its own double description.

    For each max cone, the cone {c : c @ basis >= 0, zero on the cone's rays}
    in coefficient space is described afresh; the sum of its extreme rays has
    maximal support among its members, and its image, made primitive, is
    scaled to the smallest lattice member on its ray.
    """
    from toriclift.lattice import primitive_vector
    from toriclift.polyhedra import dual_description

    n = sub.fan.n_rays
    witnesses = []
    for cone in sub.fan.max_cones:
        normals = []
        for j in range(n):
            col = tuple(row[j] for row in sub.basis)
            normals.append(col)
            if j in cone:
                normals.append(tuple(-x for x in col))
        _, rays = dual_description(normals, len(sub.basis))
        total = [sum(r[k] for r in rays) for k in range(len(sub.basis))]
        w = tuple(sum(c * row[j] for c, row in zip(total, sub.basis)) for j in range(n))
        if all(w[j] > 0 for j in range(n) if j not in cone) and all(w[j] == 0 for j in cone):
            witnesses.append(
                w if not any(w) else minimal_lattice_multiple(sub.basis, primitive_vector(w))
            )
        else:
            witnesses.append(None)
    return tuple(witnesses)


# -- lifting's effectivity stage: Fourier-Motzkin over rationals and a full box --


def rational_feasible(ineqs: list[Vec], rhs: list[int]) -> bool:
    """Fourier-Motzkin over exact rationals: is {tau : a.tau >= b} nonempty?"""
    system = [
        ([Fraction(x) for x in a], Fraction(b)) for a, b in zip(ineqs, rhs)
    ]
    dim = len(ineqs[0]) if ineqs else 0
    for var in range(dim):
        lower, upper, rest = [], [], []
        for a, b in system:
            if a[var] > 0:
                lower.append((a, b))
            elif a[var] < 0:
                upper.append((a, b))
            else:
                rest.append((a, b))
        new_system = rest
        for al, bl in lower:
            for au, bu in upper:
                # eliminate: al scaled + au scaled
                coef_l = -au[var]
                coef_u = al[var]
                a = [coef_l * x + coef_u * y for x, y in zip(al, au)]
                b = coef_l * bl + coef_u * bu
                new_system.append((a, b))
        system = new_system
    return all(b <= 0 for a, b in system)


def box_search(
    ineqs: list[Vec], rhs: list[int], dim: int, bound: int
) -> list[Vec] | None:
    """All integer points in [-bound, bound]^dim satisfying the system, in
    lexicographic order; None when there are none (a bounded search, so the
    caller reports 'undecided', not 'no').  A box too large to search raises
    ResourceLimitError rather than reporting a search that never ran."""
    from toriclift.lattice import ResourceLimitError
    from toriclift.lifting import MAX_SEARCH_POINTS, MAX_WITNESS_CLASSES

    total = (2 * bound + 1) ** dim
    if total > MAX_SEARCH_POINTS:
        raise ResourceLimitError(
            f"effectivity search box of {total} points ((2 * {bound} + 1)^{dim}) exceeds "
            f"guard MAX_SEARCH_POINTS = {MAX_SEARCH_POINTS}; lower --search-bound"
        )
    out = []
    for tau in itertools.product(range(-bound, bound + 1), repeat=dim):
        ok = all(
            sum(a_i * t_i for a_i, t_i in zip(a, tau)) >= b
            for a, b in zip(ineqs, rhs)
        )
        if ok:
            out.append(tau)
            if len(out) >= MAX_WITNESS_CLASSES:
                break
    return out or None


# -- the adjugate by cofactors ---------------------------------------------------


def adjugate_by_cofactors(m):
    """Reference for ``lattice.scaled_inverse(m, det(m))``, the adjugate: the
    transpose of the matrix of cofactors, one minor determinant per entry."""
    from toriclift.lattice import IntMatrix, determinant

    n = m.rows
    if n == 0:
        return IntMatrix((), cols=0)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r, c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            sign = -1 if (i + j) % 2 else 1
            cof[i][j] = sign * determinant(IntMatrix(minor, cols=n - 1))
    # adjugate = transpose of the cofactor matrix
    return IntMatrix(tuple(zip(*cof)), cols=n)


# -- Hilbert bases by the enumeration box of the effective-cone ray images --------


MAX_HILBERT_AMBIENT = 16
MAX_HILBERT_POINTS = 500_000
MAX_HILBERT_BOX = 10**6


def _lattice_points_in_box(h: Sequence[Vec], bounds: Sequence[int]) -> list[Vec]:
    """All lattice points x with 0 <= x <= bounds, by DFS over the Hermite
    basis ``h``; at most ``MAX_HILBERT_POINTS`` are visited."""
    from toriclift.lattice import ResourceLimitError

    n = len(bounds)
    limit = MAX_HILBERT_POINTS
    pivots = []
    for row in h:
        lead = next(c for c in range(n) if row[c] != 0)
        pivots.append(lead)
    out: list[Vec] = []
    current = [0] * n
    visited = [0]

    def dfs(depth: int):
        if depth == len(h):
            visited[0] += 1
            if visited[0] > limit:
                raise ResourceLimitError(
                    f"lattice point enumeration exceeded {limit} points: "
                    f"MAX_HILBERT_POINTS = {limit} in oracles, "
                    f"no flag overrides it"
                )
            if all(0 <= current[j] <= bounds[j] for j in range(n)):
                out.append(tuple(current))
            return
        row = h[depth]
        p = pivots[depth]
        # columns left of this pivot receive no further contributions
        for j in range(p):
            if not 0 <= current[j] <= bounds[j]:
                return
        pv = row[p]
        base = current[p]
        # c must satisfy 0 <= base + c*pv <= bounds[p], with pv > 0
        lo = _ceil_div(-base, pv)
        hi = (bounds[p] - base) // pv
        for c in range(lo, hi + 1):
            if c:
                for j in range(p, n):
                    current[j] += c * row[j]
            dfs(depth + 1)
            if c:
                for j in range(p, n):
                    current[j] -= c * row[j]

    dfs(0)
    return out


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def hilbert_basis_by_box(
    subgroup_basis: Sequence[Sequence[int]], ambient_rank: int
) -> tuple[Vec, ...]:
    """Reference for ``lattice.hilbert_basis``: the box search it replaced.

    Minimal generating set of (lattice) intersect (nonnegative orthant).

    The semigroup of nonnegative lattice vectors is finitely generated; this
    returns its unique minimal generators sorted by (coordinate sum, lex).
    The images of the effective cone's rays bound a box enumeration, then a
    reducibility sieve.  The full lattice is answered directly; otherwise
    guarded: ambient_rank <= 16 and bounded enumeration.
    """
    from toriclift.lattice import (
        IntMatrix,
        ResourceLimitError,
        _as_vec,
        hermite_row_basis,
    )

    rows = [_as_vec(r) for r in subgroup_basis]
    for r in rows:
        if len(r) != ambient_rank:
            raise ValueError("basis width mismatch")
    h = hermite_row_basis(rows, width=ambient_rank)
    if not h:
        return ()
    # Fast path: the full integer lattice — generators are the unit vectors.
    if is_identity_basis(h, ambient_rank):
        return tuple(sorted(h))
    if ambient_rank > MAX_HILBERT_AMBIENT:
        raise ResourceLimitError(
            f"ambient rank {ambient_rank} exceeds Hilbert basis guard {MAX_HILBERT_AMBIENT}: "
            f"MAX_HILBERT_AMBIENT = {MAX_HILBERT_AMBIENT} in oracles, "
            f"no flag overrides it"
        )
    basis = IntMatrix(h)
    gens = [basis.left_apply(c) for c in effective_cone_rays(h)]
    if not gens:
        return ()
    bounds = tuple(sum(g[j] for g in gens) for j in range(ambient_rank))
    if any(b > MAX_HILBERT_BOX for b in bounds):
        raise ResourceLimitError(
            f"Hilbert basis enumeration box {bounds} exceeds guard {MAX_HILBERT_BOX}: "
            f"MAX_HILBERT_BOX = {MAX_HILBERT_BOX} in oracles, "
            f"no flag overrides it"
        )
    pts = [
        p
        for p in _lattice_points_in_box(h, bounds)
        if any(p) and all(x >= 0 for x in p)
    ]
    pts.sort(key=lambda p: (sum(p), p))
    members = set(pts)
    basis_out = []
    for p in pts:
        reducible = False
        for q in pts:
            if sum(q) >= sum(p):  # a proper summand has strictly smaller sum
                break
            if all(a <= b for a, b in zip(q, p)):
                rem = tuple(a - b for a, b in zip(p, q))
                if any(rem) and rem in members:
                    reducible = True
                    break
        if not reducible:
            basis_out.append(p)
    return tuple(basis_out)


# -- Hilbert bases from parallelepiped points listed as tuples -------------------


def hilbert_basis_by_sieve(h: Sequence[Vec], rays: Sequence[Vec]) -> tuple[Vec, ...]:
    """Reference for ``lattice.hilbert_basis``: the tuple listing it replaced.

    Each parallelepiped point's lambda is built as a tuple reduced mod d and
    mapped by one dot product per ambient coordinate; the candidates are
    sorted by a (sum, lex) key and sieved coordinate by coordinate.
    """
    from toriclift.lattice import (
        IntMatrix,
        ResourceLimitError,
        _pulling_triangulation,
        matrix_rank,
        smith_normal_form,
        vec_dot,
    )

    if not h:
        return ()
    width = len(h[0])
    # Fast path: the full integer lattice — generators are the unit vectors.
    if is_identity_basis(h, width):
        return tuple(sorted(h))
    if not rays:
        return ()
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
                f"MAX_HILBERT_POINTS = {limit} in oracles, "
                f"no flag overrides it"
            )
        simplices.append((tuple(zip(*(images[i] for i in simplex))), snf.U, s))
    candidates = set(images)
    for columns, U, s in simplices:
        # lambda scaled by the common denominator d = s_last, reduced mod d
        d = s[-1]
        lams = [(0,) * len(s)]
        for i, si in enumerate(s):
            step = [d // si * u for u in U.row(i)]
            lams = [
                tuple((a + t * b) % d for a, b in zip(lam, step))
                for lam in lams
                for t in range(si)
            ]
        candidates.update(tuple(vec_dot(lam, col) // d for col in columns) for lam in lams)
    candidates.discard((0,) * width)
    basis_out: list[Vec] = []
    for p in sorted(candidates, key=lambda p: (sum(p), p)):
        # p - q is a nonnegative lattice vector, nonzero as q comes first
        if not any(all(a <= b for a, b in zip(q, p)) for q in basis_out):
            basis_out.append(p)
    return tuple(basis_out)


# -- fan isomorphism by every ordered assignment of the base rays ----------------


MAX_ISO_ASSIGNMENTS = 2_000_000


def fan_isomorphic_by_permutations(a, b):
    """Reference for ``isomorphism.fan_isomorphic``: the search it replaced.

    Tries every injective assignment of the base rays into ``b``'s rays in
    ``itertools.permutations`` order, builds the full candidate matrix for
    each and only then checks the other rays; first hit wins.  It rejects on
    its own rank and count checks first, so the engine's prefilter never
    decides for it.  Refuses up front when there are more than
    ``MAX_ISO_ASSIGNMENTS`` assignments.
    """
    from math import factorial

    from toriclift.isomorphism import (
        FanIso,
        _independent_ray_subset,
        verify_fan_iso,
    )
    from toriclift.lattice import IntMatrix, ResourceLimitError, determinant, scaled_inverse

    if a.is_degenerate or b.is_degenerate:
        raise ValueError(
            "fan_isomorphic requires non-degenerate fans; "
            "use toric_isomorphism for torus-factor cancellation"
        )
    if (a.rank, a.n_rays, len(a.max_cones)) != (b.rank, b.n_rays, len(b.max_cones)):
        return None
    if sorted(map(len, a.max_cones)) != sorted(map(len, b.max_cones)):
        return None
    if a.rank == 0:
        iso = FanIso(
            matrix=IntMatrix((), cols=0),
            ray_bijection=(),
            cone_bijection=tuple(range(len(a.max_cones))),
        )
        return iso if not verify_fan_iso(a, b, iso) else None

    base = _independent_ray_subset(a)
    assert len(base) == a.rank
    r_mat = IntMatrix(tuple(a.rays[i] for i in base), cols=a.rank).T
    det_r = determinant(r_mat)
    assert det_r != 0
    adj_r = scaled_inverse(r_mat, det_r)

    n_assign = factorial(b.n_rays) // factorial(b.n_rays - a.rank)
    if n_assign > MAX_ISO_ASSIGNMENTS:
        raise ResourceLimitError(
            f"isomorphism search would try {n_assign} ray assignments "
            f"(limit {MAX_ISO_ASSIGNMENTS}): MAX_ISO_ASSIGNMENTS = "
            f"{MAX_ISO_ASSIGNMENTS} in oracles, no flag overrides it"
        )

    for assign in itertools.permutations(range(b.n_rays), a.rank):
        w_mat = IntMatrix(tuple(b.rays[j] for j in assign), cols=b.rank).T
        # L = W R^{-1} = W adj(R) / det(R); keep only integral candidates
        num = w_mat @ adj_r
        if any(x % det_r for row in num for x in row):
            continue
        L = IntMatrix(
            tuple(tuple(x // det_r for x in row) for row in num), cols=a.rank
        )
        if abs(determinant(L)) != 1:
            continue
        iso = _complete_bijections(a, b, L)
        if iso is not None:
            assert not verify_fan_iso(a, b, iso)
            return iso
    return None


def _complete_bijections(a: Fan, b: Fan, L: IntMatrix) -> Optional[FanIso]:
    from toriclift.isomorphism import FanIso

    ray_index = {ray: j for j, ray in enumerate(b.rays)}
    ray_map = []
    for i in range(a.n_rays):
        j = ray_index.get(L.apply(a.rays[i]))
        if j is None:
            return None
        ray_map.append(j)
    if len(set(ray_map)) != b.n_rays:
        return None
    cone_index = {cone: c for c, cone in enumerate(b.max_cones)}
    cone_map = []
    for cone in a.max_cones:
        image = tuple(sorted(ray_map[i] for i in cone))
        c = cone_index.get(image)
        if c is None:
            return None
        cone_map.append(c)
    if len(set(cone_map)) != len(b.max_cones):
        return None
    return FanIso(
        matrix=L, ray_bijection=tuple(ray_map), cone_bijection=tuple(cone_map)
    )


# -- Cartier pullback through the local characters of every max cone ----------


def cartier_data(fan, coeffs: Sequence[int]):
    """Reference for ``ToricMorphism.cartier_pullback``: local
    trivializations witnessing that the divisor is Cartier, one character
    per max cone pairing to the divisor coefficients on that cone's rays;
    None when some cone has none."""
    from toriclift.lattice import IntMatrix, solve_integer_linear

    if len(coeffs) != fan.n_rays:
        raise ValueError("coefficient length mismatch")
    chars = []
    for cone in fan.max_cones:
        rays = IntMatrix(fan.cone_rays(cone), cols=fan.rank)
        sol = solve_integer_linear(rays, [coeffs[i] for i in cone])
        if sol is None:
            return None
        chars.append(sol.particular)
    return tuple(chars)


def pullback_cartier(f, characters: Sequence[Vec]) -> Vec:
    """Reference for ``ToricMorphism.pull_back_cartier``: the pullback of a
    Cartier divisor given by its local characters (:func:`cartier_data`).
    At each source ray, the local character of every target max cone
    holding the ray's image (by its facet description) pairs with that
    image to the same value, which is asserted, and that value is the
    coefficient."""
    target = f.target
    out = []
    for i in range(f.source.n_rays):
        w = f.ray_image(i)
        containing = [ci for ci in range(len(target.max_cones)) if target.cone_hreps[ci].contains(w)]
        values = {sum(x * y for x, y in zip(characters[ci], w)) for ci in containing}
        assert len(values) == 1, "local characters must agree on the image"
        out.append(values.pop())
    return tuple(out)


# -- Cartier lattice by pairwise intersection of per-cone lattices ------------


def lattice_intersection(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], width: int
) -> tuple[Vec, ...]:
    """Canonical basis of the intersection of two row lattices: the images
    x @ a of the left kernel rows (x | y) of a stacked over -b, for which
    x @ a = y @ b."""
    from toriclift.lattice import kernel_basis

    ra = [tuple(r) for r in a]
    rb = [tuple(r) for r in b]
    if not ra or not rb:
        return ()
    stacked = IntMatrix(ra + [tuple(-x for x in r) for r in rb])
    left = IntMatrix(ra, cols=width)
    return hermite_row_basis(
        (left.left_apply(x[: len(ra)]) for x in kernel_basis(stacked.T)), width=width
    )


def cartier_lattice_by_intersection(fan) -> tuple[Vec, ...]:
    """Reference for the Cartier members of ``divisors.cox_subgroup``: the
    lattice they replaced.

    Each singular max cone's condition cuts out a sublattice of Z^rays, the
    Hermite basis of the restricted character pairing on the cone's rays
    plus every ray off the cone; the Cartier lattice is their intersection,
    taken pairwise.
    """
    n = fan.n_rays
    units = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    current = units
    for cone in fan.max_cones:
        restricted = [tuple(fan.rays[i][j] for i in cone) for j in range(fan.rank)]
        rsub = hermite_row_basis(restricted, width=len(cone))
        # identity basis: a smooth cone, on which every divisor is Cartier
        if is_identity_basis(rsub, len(cone)):
            continue
        pos = {ray_i: k for k, ray_i in enumerate(cone)}
        gens = [tuple(r[pos[i]] if i in pos else 0 for i in range(n)) for r in rsub]
        gens += [units[i] for i in range(n) if i not in pos]
        basis = hermite_row_basis(gens, width=n)
        current = basis if current == units else lattice_intersection(current, basis, width=n)
    return current


def cartier_members_by_intersection(sub) -> tuple[Vec, ...]:
    """Reference for ``DivisorSubgroup.cartier_members``: the subgroup's
    basis intersected with :func:`cartier_lattice_by_intersection`, with no
    shortcut."""
    n = sub.fan.n_rays
    return lattice_intersection(sub.basis, cartier_lattice_by_intersection(sub.fan), width=n)


# -- double description and Smith form through per-element helpers ------------
#
# The package's kernels before their inner loops were written out inline:
# every projection and combination through the vector helpers, zero sets as
# Python sets, and the Smith reduction's row and column operations as nested
# closures.  The package must reproduce their outputs exactly.


def dual_description_by_helpers(normals, dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Reference for ``polyhedra.dual_description``, the same algorithm with
    one helper call per vector operation and set-valued zero sets."""
    from toriclift.lattice import primitive_vector, vec_dot

    def vec_sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def vec_scale(k, a):
        return tuple(k * x for x in a)

    def vec_is_zero(a):
        return all(x == 0 for x in a)

    def canonical_line(v):
        v = primitive_vector(v)
        lead = next((x for x in v if x != 0), 0)
        return vec_scale(-1, v) if lead < 0 else v

    normals = [tuple(map(int, a)) for a in normals]
    for a in normals:
        if len(a) != dim:
            raise ValueError("normal of wrong dimension")
    lines = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays: list[Vec] = []
    zero_sets: list[set[int]] = []
    processed: list[int] = []

    for idx, a in enumerate(normals):
        if vec_is_zero(a):
            continue
        line_vals = [vec_dot(a, l) for l in lines]
        pivot = next((i for i, v in enumerate(line_vals) if v != 0), None)
        if pivot is not None:
            l0 = lines.pop(pivot)
            v0 = line_vals.pop(pivot)
            if v0 < 0:
                l0 = vec_scale(-1, l0)
                v0 = -v0
            lines = [
                primitive_vector(vec_sub(vec_scale(v0, l), vec_scale(v, l0)))
                for l, v in zip(lines, line_vals)
            ]
            rays = [
                primitive_vector(vec_sub(vec_scale(v0, r), vec_scale(vec_dot(a, r), l0)))
                for r in rays
            ]
            rays.append(l0)
            zero_sets.append(set(processed))
            processed.append(idx)
            for z in zero_sets[:-1]:
                z.add(idx)
            continue
        vals = [vec_dot(a, r) for r in rays]
        keep_idx = [i for i, v in enumerate(vals) if v >= 0]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[Vec] = []
        new_zero: list[set[int]] = []
        for i in keep_idx:
            new_rays.append(rays[i])
            z = set(zero_sets[i])
            if vals[i] == 0:
                z.add(idx)
            new_zero.append(z)
        for ip in pos:
            for im in neg:
                common = zero_sets[ip] & zero_sets[im]
                if any(
                    common <= z for k, z in enumerate(zero_sets) if k not in (ip, im)
                ):
                    continue
                comb = primitive_vector(
                    vec_sub(vec_scale(vals[ip], rays[im]), vec_scale(vals[im], rays[ip]))
                )
                if vec_is_zero(comb):
                    continue
                new_rays.append(comb)
                new_zero.append(common | {idx})
        rays = new_rays
        zero_sets = new_zero
        processed.append(idx)

    lines = sorted(canonical_line(l) for l in lines if not vec_is_zero(l))
    return tuple(lines), tuple(sorted(rays))


def smith_normal_form_by_closures(A):
    """Reference for ``lattice.smith_normal_form``: the same pivot rule and
    the same row and column operations, each one a nested closure."""
    from toriclift.lattice import IntMatrix, SNFDecomposition

    m, n = A.rows, A.cols
    data = [list(r) for r in A.row_list()]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def find_pivot(k):
        # smallest nonzero |entry|, ties by lowest row then lowest column
        keys = [
            (abs(data[i][j]), i, j) for i in range(k, m) for j in range(k, n) if data[i][j] != 0
        ]
        return min(keys)[1:] if keys else None

    def row_swap(i, j):
        if i == j:
            return
        data[i], data[j] = data[j], data[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        if i == j:
            return
        for r in data:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def row_add(dst, src, c):
        if c == 0:
            return
        data[dst] = [a + c * b for a, b in zip(data[dst], data[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def col_add(dst, src, c):
        if c == 0:
            return
        for r in data:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def row_negate(i):
        data[i] = [-a for a in data[i]]
        U[i] = [-a for a in U[i]]

    for k in range(min(m, n)):
        while True:
            piv = find_pivot(k)
            if piv is None:
                break
            row_swap(k, piv[0])
            col_swap(k, piv[1])
            p = data[k][k]
            dirty = False
            for i in range(k + 1, m):
                if data[i][k] != 0:
                    row_add(i, k, -(data[i][k] // p))
                    if data[i][k] != 0:
                        dirty = True
            for j in range(k + 1, n):
                if data[k][j] != 0:
                    col_add(j, k, -(data[k][j] // p))
                    if data[k][j] != 0:
                        dirty = True
            if dirty:
                continue
            p = data[k][k]
            offender = next(
                (i for i in range(k + 1, m) for j in range(k + 1, n) if data[i][j] % p != 0),
                None,
            )
            if offender is None:
                break
            row_add(k, offender, 1)
        if piv is None:
            break

    for k in range(min(m, n)):
        if data[k][k] < 0:
            row_negate(k)

    return SNFDecomposition(
        U=IntMatrix(U, cols=m), S=IntMatrix(data, cols=n), V=IntMatrix(V, cols=n)
    )


# -- divisor transforms and the grading factorization ---------------------------
#
# Computations with no engine counterpart: the strict transform is a formula
# for phi on smooth targets, and the grading factorization checks a
# presentation's grading group against the class group.


def principal_divisor(fan: Fan, character: Sequence[int]) -> Vec:
    from toriclift.lattice import vec_dot

    if len(character) != fan.rank:
        raise ValueError("character of wrong rank")
    return tuple(vec_dot(character, ray) for ray in fan.rays)


def strict_transform(f: ToricMorphism, coeffs: Sequence[int]) -> Vec | None:
    """Divisor transform defined when every source ray's image lands in a
    smooth minimal target cone; None otherwise.

    On a smooth cone any divisor has a local character; pairing it with the
    ray image gives the coefficient.  The face's one Smith form U R V = S
    both tests smoothness, S = (I | 0), and gives the character
    m = V (U d, 0) with R m = d for the divisor's restriction d.
    """
    from toriclift.fan import _is_basis_part
    from toriclift.lattice import IntMatrix, smith_normal_form, vec_dot

    if len(coeffs) != f.target.n_rays:
        raise ValueError("coefficient length mismatch")
    out = []
    for i, face in enumerate(f.ray_faces):
        snf = smith_normal_form(IntMatrix(f.target.cone_rays(face), cols=f.target.rank))
        if not _is_basis_part(snf, len(face)):
            return None
        padding = (0,) * (f.target.rank - len(face))
        m = snf.V.apply(snf.U.apply([coeffs[j] for j in face]) + padding)
        out.append(vec_dot(m, f.ray_image(i)))
    return tuple(out)


def order(group: FgAbGroup) -> int | None:
    """The order of an ``FgAbGroup``; None when it is infinite."""
    if group.free_rank:
        return None
    out = 1
    for k in group.torsion:
        out *= k
    return out


def compose(first: AbHom, then: AbHom) -> AbHom:
    """The ``AbHom`` x -> then(first(x)); first's codomain must equal
    then's domain."""
    from toriclift.lattice import AbHom

    if first.codomain != then.domain:
        raise ValueError("composition domain mismatch")
    return AbHom(first.domain, then.codomain, first.matrix @ then.matrix)


def is_zero(hom: AbHom) -> bool:
    """Whether an ``AbHom`` sends every generator to zero."""
    return all(
        hom.codomain.is_zero_element(hom.matrix.row(i))
        for i in range(hom.matrix.rows)
    )


@dataclass(frozen=True)
class GradingFactorization:
    """The grading group's two-sided fit against the class group.

    ``into_class_group`` maps the presentation's grading group into the
    divisor class group; ``onto_residual`` maps the class group onto the
    classes modulo the subgroup; the three groups are their domains and
    codomains.  Diagnostics: the composite vanishes, free ranks are
    additive, and group orders are multiplicative when finite.
    """

    into_class_group: AbHom
    onto_residual: AbHom
    composite_is_zero: bool
    ranks_additive: bool
    orders_multiplicative: bool | None


def grading_factorization(pres: Presentation) -> GradingFactorization:
    from toriclift.divisors import cox_subgroup
    from toriclift.lattice import AbHom

    sub = pres.subgroup
    n = sub.fan.n_rays
    cl = cox_subgroup(sub.fan).grading_cokernel
    grading_coker = sub.grading_cokernel
    grading = pres.grading_group

    # residual: divisors modulo the subgroup
    residual_coker = CokernelData(IntMatrix(sub.basis, cols=n).T)
    residual = residual_coker.group

    # grading generator -> divisor in Z^rays -> class
    rows_in = []
    for lift in grading_coker.generator_lifts:
        divisor = tuple(
            sum(c * row[j] for c, row in zip(lift, sub.basis)) for j in range(n)
        )
        rows_in.append(cl.project(divisor))
    into = AbHom(
        domain=grading,
        codomain=cl.group,
        matrix=IntMatrix(tuple(rows_in), cols=cl.group.n_generators),
    )

    # class generator -> divisor -> residual class
    rows_onto = []
    for divisor in cl.generator_lifts:
        rows_onto.append(residual_coker.project(divisor))
    onto = AbHom(
        domain=cl.group,
        codomain=residual,
        matrix=IntMatrix(tuple(rows_onto), cols=residual.n_generators),
    )

    composite = compose(into, onto)
    ranks_ok = grading.free_rank + residual.free_rank == cl.group.free_rank
    orders = (order(grading), order(residual), order(cl.group))
    orders_ok: bool | None
    if all(o is not None for o in orders):
        orders_ok = orders[0] * orders[1] == orders[2]
    else:
        orders_ok = None

    return GradingFactorization(
        into_class_group=into,
        onto_residual=onto,
        composite_is_zero=is_zero(composite),
        ranks_additive=ranks_ok,
        orders_multiplicative=orders_ok,
    )
