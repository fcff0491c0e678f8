import itertools
import math
import random

import pytest

from toriclift import lattice
from toriclift.lattice import (
    AbHom,
    CokernelData,
    ExtensionObstruction,
    FgAbGroup,
    IntMatrix,
    ResourceLimitError,
    determinant,
    extend_homomorphism,
    hermite_coefficients,
    hermite_row_basis,
    hilbert_basis,
    kernel_basis,
    matrix_rank,
    primitive_vector,
    smith_normal_form,
    solve_integer_linear,
)

import oracles


def M(rows):
    return IntMatrix(rows)


def member(rows, v):
    """Membership of v in the lattice spanned by ``rows``."""
    return hermite_coefficients(hermite_row_basis(rows, width=len(v)), v) is not None


# -- matrices ---------------------------------------------------------------


def test_matmul_apply_transpose():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]
    assert a.apply((1, 1)) == (3, 7)
    assert a.left_apply((1, 1)) == (4, 6)
    assert a.T.to_lists() == [[1, 3], [2, 4]]
    assert a + a == M([[2, 4], [6, 8]])
    assert (a * 2).to_lists() == [[2, 4], [6, 8]]


def test_constructor_checks_shape_and_coerces_entries():
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix([[1], [2], [3, 4]])
    empty = IntMatrix([], cols=3)
    assert (empty.rows, empty.cols) == (0, 3) and empty.to_lists() == []
    assert (IntMatrix([]).rows, IntMatrix([]).cols) == (0, 0)
    # the width of nonempty rows wins over ``cols``
    assert IntMatrix([(1, 2)], cols=5).cols == 2
    a = IntMatrix(([True, False], (3, -4)))
    assert a.row_list() == ((1, 0), (3, -4))
    assert all(type(x) is int for row in a for x in row)
    # rows may be any iterables, read once
    assert IntMatrix(iter([iter((1, 2)), range(2)])) == IntMatrix([[1, 2], [0, 1]])
    assert a == IntMatrix([[1, 0], [3, -4]]) and hash(a) == hash(IntMatrix([[1, 0], [3, -4]]))


def test_empty_shapes():
    t = IntMatrix((), cols=3).T
    assert (t.rows, t.cols) == (3, 0)
    t = IntMatrix([(), ()]).T
    assert (t.rows, t.cols) == (0, 2)
    assert IntMatrix([(), ()]) @ IntMatrix((), cols=3) == IntMatrix([(0, 0, 0), (0, 0, 0)])
    p = IntMatrix((), cols=2) @ M([[1, 2, 3], [4, 5, 6]])
    assert (p.rows, p.cols) == (0, 3)


def test_determinant_and_rank():
    assert determinant(M([[2, 0], [0, 3]])) == 6
    assert determinant(M([[1, 2], [2, 4]])) == 0
    assert determinant(M([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1
    assert matrix_rank(M([[1, 2, 3], [2, 4, 6], [0, 0, 1]])) == 2
    assert abs(determinant(M([[2, 1], [1, 1]]))) == 1
    assert abs(determinant(M([[2, 0], [0, 1]]))) != 1


def test_primitive_vector():
    assert primitive_vector((4, -6, 2)) == (2, -3, 1)
    assert primitive_vector((0, 0)) == (0, 0)
    assert primitive_vector((-3,)) == (-1,)


def test_vector_kernels_match_comprehensions():
    """The vector and matrix kernels agree with their plain comprehension
    definitions on seeded vectors of length 0 to 8, with negative entries and
    entries above 2**64; ``left_apply`` also on all-zero and empty vectors."""
    rng = random.Random(1717)

    def entry():
        return rng.randint(-9, 9) if rng.random() < 0.7 else rng.randint(-2**70, 2**70)

    def vec(n):
        return tuple(entry() for _ in range(n))

    for _ in range(10_000):
        n = rng.randint(0, 8)
        a, b, k = vec(n), vec(n), entry()
        assert lattice.vec_dot(a, b) == sum(x * y for x, y in zip(a, b))
        g = 0
        for x in a:
            g = math.gcd(g, x)
        assert primitive_vector(a) == (tuple(x // g for x in a) if g > 1 else a)
        rows = [vec(n) for _ in range(rng.randint(0, 3))]
        A = IntMatrix(rows, cols=n)
        assert A.apply(b) == tuple(sum(x * y for x, y in zip(r, b)) for r in rows)
        v = vec(len(rows)) if rng.random() < 0.8 else (0,) * len(rows)
        assert A.left_apply(v) == tuple(
            sum(v[i] * rows[i][j] for i in range(len(rows))) for j in range(n)
        )
        p = rng.randint(0, 3)
        cols = [vec(n) for _ in range(p)]
        B = IntMatrix([tuple(c[j] for c in cols) for j in range(n)], cols=p)
        assert (A @ B).to_lists() == [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in rows]
    for short, long in [((), (1,)), ((1, 2), (3,)), ((1,), (2, 3, 4))]:
        with pytest.raises(ValueError):
            lattice.vec_dot(short, long)
        with pytest.raises(ValueError):
            lattice.vec_dot(long, short)
    for v in [(), (1, 2)]:
        with pytest.raises(ValueError):
            IntMatrix([(1, 2)], cols=2).left_apply(v)


# -- Smith normal form --------------------------------------------------------


SNF_GOLDEN = [
    ([[1, 0], [0, 1]], (1, 1)),
    ([[2, 0], [0, 3]], (1, 6)),  # divisibility chain is enforced
    ([[0]], ()),
    ([[4, 2], [2, 4]], (2, 6)),
    ([[1, 2, 3]], (1,)),
    ([[2, 4], [4, 8]], (2,)),
    ([[6, 0], [0, 10]], (2, 30)),
]


@pytest.mark.parametrize("rows,expected", SNF_GOLDEN)
def test_snf_golden(rows, expected):
    assert smith_normal_form(M(rows)).invariant_factors == expected


def _leibniz_determinant(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_rank_and_determinant_by_elimination_match_oracles():
    rng = random.Random(8128)
    shapes = [(0, 3), (3, 0), (0, 0)]
    for _ in range(150):
        n = rng.randrange(1, 6)
        shapes += [(n, n), (rng.randrange(1, 6), rng.randrange(1, 6))]
    for trial, (m, n) in enumerate(shapes):
        # a product through k dimensions has rank at most k; mostly k is full
        k = min(m, n) if rng.random() < 0.6 else rng.randrange(0, min(m, n) + 1)
        left = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(m)]
        right = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] or [0] * n
                for row in left]
        if m and rng.random() < 0.3:
            rows[rng.randrange(m)] = [0] * n
        if n and rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        A = IntMatrix(rows, cols=n)
        assert (A.rows, A.cols) == (m, n)
        assert matrix_rank(A) == len(oracles.snf_diagonal_randomized(rows, seed=trial))
        if m == n:
            assert determinant(A) == _leibniz_determinant(rows)


def test_snf_transforms_and_oracle():
    rng = random.Random(20260816)
    for trial in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        A = M(rows)
        snf = smith_normal_form(A)
        assert snf.U @ A @ snf.V == snf.S
        d = list(snf.invariant_factors)
        assert all(x > 0 for x in d)
        assert all(b % a == 0 for a, b in zip(d, d[1:]))
        # off-diagonal entries of S vanish
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert snf.S[i, j] == 0
        assert d == oracles.snf_diagonal_randomized(rows, seed=trial)


def _random_snf_input(rng):
    """A seeded m x n matrix, m and n in 0 to 6: full rank or a product
    through fewer dimensions, with zero rows or columns mixed in, and small
    entries or occasionally large ones."""
    m, n = rng.randint(0, 6), rng.randint(0, 6)
    k = min(m, n) if rng.random() < 0.5 else rng.randint(0, min(m, n))
    bound = 3 if rng.random() < 0.9 else 10**6
    left = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(m)]
    right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] or [0] * n
            for row in left]
    if m and rng.random() < 0.2:
        rows[rng.randrange(m)] = [0] * n
    if n and rng.random() < 0.2:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    return IntMatrix(rows, cols=n)


def test_snf_matches_closure_oracle():
    """The closure-free Smith form returns exactly the (U, S, V) of the same
    pivot rule and row and column operations written as nested closures, on
    10,000 seeded matrices of every shape from 0 x 0 to 6 x 6."""
    rng = random.Random(1996)
    shapes, deficient = set(), 0
    for _ in range(10_000):
        A = _random_snf_input(rng)
        got = smith_normal_form(A)
        want = oracles.smith_normal_form_by_closures(A)
        assert (got.U, got.S, got.V) == (want.U, want.S, want.V), A
        shapes.add((A.rows, A.cols))
        deficient += got.rank < min(A.rows, A.cols)
    assert len(shapes) == 49 and deficient > 1000


# -- integer linear systems ---------------------------------------------------


def test_solve_integer_linear():
    A = M([[2, 0], [0, 2]])
    assert solve_integer_linear(A, (3, 0)) is None
    sol = solve_integer_linear(A, (4, 6))
    assert sol is not None and A.apply(sol.particular) == (4, 6)
    assert sol.kernel_basis == ()

    B = M([[1, 1, 1]])
    sol = solve_integer_linear(B, (5,))
    assert sol is not None and sum(sol.particular) == 5
    assert len(sol.kernel_basis) == 2
    for k in sol.kernel_basis:
        assert B.apply(k) == (0,)
    # (1,-1,0) lies in the kernel lattice
    assert member(sol.kernel_basis, (1, -1, 0))


def test_solve_integer_linear_empty_systems():
    # no equations in three unknowns: zero particular solution, unit kernel
    sol = solve_integer_linear(IntMatrix((), cols=3), ())
    assert sol.particular == (0, 0, 0)
    assert sol.kernel_basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # equations without unknowns: solvable iff the rhs vanishes
    sol = solve_integer_linear(IntMatrix([(), ()]), (0, 0))
    assert sol.particular == () and sol.kernel_basis == ()
    assert solve_integer_linear(IntMatrix([(), ()]), (0, 1)) is None


def test_kernel_basis_random_oracle():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        A = M([[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)])
        ker = kernel_basis(A)
        for k in ker:
            assert all(x == 0 for x in A.apply(k))
        assert len(ker) == n - matrix_rank(A)
        # solvable systems report a genuine solution
        x = tuple(rng.randrange(-3, 4) for _ in range(n))
        b = A.apply(x)
        sol = solve_integer_linear(A, b)
        assert sol is not None
        assert A.apply(sol.particular) == b


# -- Hermite basis and lattice operations -------------------------------------


HNF_GOLDEN = [
    ([(1, 1), (0, 2)], ((1, 1), (0, 2))),
    ([(2, 0), (1, 1)], ((1, 1), (0, 2))),
    ([(0, 0)], ()),
    ([(0, 3), (0, 5)], ((0, 1),)),
    ([(2, 4), (4, 8)], ((2, 4),)),
    ([(3, 1), (1, 3)], ((1, 3), (0, 8))),
]


@pytest.mark.parametrize("rows,expected", HNF_GOLDEN)
def test_hermite_golden(rows, expected):
    assert hermite_row_basis(rows, width=2) == expected


def test_hermite_canonical_and_membership():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randrange(1, 4)
        rows = [
            tuple(rng.randrange(-6, 7) for _ in range(n))
            for _ in range(rng.randrange(1, 4))
        ]
        h = hermite_row_basis(rows, width=n)
        # same lattice regardless of generator order / sign flips
        shuffled = [tuple(-x for x in r) for r in reversed(rows)]
        assert hermite_row_basis(shuffled, width=n) == h
        # every generator is a member; membership agrees with brute force
        for r in rows:
            assert hermite_coefficients(h, r) is not None
        probe = tuple(rng.randrange(-4, 5) for _ in range(n))
        c = hermite_coefficients(h, probe)
        if oracles.in_lattice_bruteforce(probe, rows, coeff_bound=9):
            assert c is not None
        if c is not None:
            rebuilt = tuple(
                sum(ci * hr[j] for ci, hr in zip(c, h)) for j in range(n)
            )
            assert rebuilt == probe


def test_lattice_coefficients_roundtrip():
    basis = [(1, 1, 0), (0, 2, 2)]
    assert hermite_row_basis(basis, width=3) == tuple(basis)  # already Hermite
    v = (3, 7, 4)
    c = hermite_coefficients(basis, v)
    assert c is not None
    got = tuple(
        sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(3)
    )
    assert got == v
    assert hermite_coefficients(basis, (1, 0, 0)) is None


def test_lattice_sum_and_intersection():
    # the sum of two row lattices is the Hermite basis of their union
    assert hermite_row_basis([(2, 0), (3, 0)], width=2) == ((1, 0),)
    assert oracles.lattice_intersection([(2, 0), (0, 1)], [(3, 0), (0, 1)], width=2) == (
        (6, 0),
        (0, 1),
    )
    # even-coordinate-sum lattice meets even-first-coordinate lattice in 2Z^2
    a = [(1, 1), (0, 2)]
    b = [(2, 0), (0, 1)]
    inter = oracles.lattice_intersection(a, b, width=2)
    assert inter == hermite_row_basis([(2, 0), (0, 2)], width=2)
    sample = oracles.hnf_rowspace_bruteforce(a, 4) & oracles.hnf_rowspace_bruteforce(b, 4)
    for v in sample:
        assert member(inter, v)
    for v in inter:
        assert member(a, v) and member(b, v)


def test_lattice_intersection_oracle_random():
    rng = random.Random(1234)
    for _ in range(25):
        n = rng.randrange(1, 4)
        a = [tuple(rng.randrange(-4, 5) for _ in range(n)) for _ in range(2)]
        b = [tuple(rng.randrange(-4, 5) for _ in range(n)) for _ in range(2)]
        inter = oracles.lattice_intersection(a, b, width=n)
        for v in inter:
            assert member(a, v)
            assert member(b, v)
        common = oracles.hnf_rowspace_bruteforce(a, 3) & oracles.hnf_rowspace_bruteforce(
            b, 3
        )
        for v in common:
            assert member(inter, v)


# -- finitely generated abelian groups ----------------------------------------


def test_group_str():
    assert str(FgAbGroup(0, ())) == "0"
    assert str(FgAbGroup(1, (2,))) == "Z ⊕ Z/2"
    assert str(FgAbGroup(2, ())) == "Z^2"
    assert str(FgAbGroup(0, (2, 4))) == "Z/2 ⊕ Z/4"
    with pytest.raises(ValueError):
        FgAbGroup(0, (3, 4))  # not a divisibility chain
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))


def test_cokernel_torsion():
    data = CokernelData(M([[2, 0], [0, 3]]))
    assert data.group == FgAbGroup(0, (6,))
    assert data.group.is_zero_element(data.project((2, 0)))
    assert data.group.is_zero_element(data.project((0, 3)))
    elems = {data.group.reduce(data.project((a, b))) for a in range(6) for b in range(6)}
    assert len(elems) == 6


def test_cokernel_free_part():
    data = CokernelData(IntMatrix([(1,), (1,)]))
    assert data.group == FgAbGroup(1, ())
    assert data.project((1, 1)) == (0,)
    g = data.project((1, 0))
    assert abs(g[0]) == 1
    assert data.project((0, 1)) == (-g[0],)


def test_cokernel_generator_lifts():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        A = M([[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)])
        data = CokernelData(A)
        k = data.group.n_generators
        assert len(data.generator_lifts) == k
        for i, lift in enumerate(data.generator_lifts):
            proj = data.group.reduce(data.project(lift))
            assert proj == tuple(1 if j == i else 0 for j in range(k))
        # images of the map project to zero
        for j in range(A.cols):
            assert data.group.is_zero_element(data.project(A.col(j)))


def test_abhom_checks_torsion():
    z2 = FgAbGroup(0, (2,))
    z = FgAbGroup(1, ())
    with pytest.raises(ValueError):
        AbHom(domain=z2, codomain=z, matrix=M([[1]]))  # 2*1 != 0 in Z
    h = AbHom(domain=z2, codomain=z2, matrix=M([[1]]))
    square = oracles.compose(h, h)
    assert square.domain == square.codomain == z2
    assert square.matrix == M([[1]])  # the identity on the one generator


# -- homomorphism extension ---------------------------------------------------


def test_extend_homomorphism_success():
    ext, obs = extend_homomorphism(M([(2, 0), (0, 3)]), M([(2,), (3,)]))
    assert obs is None and ext is not None
    X = ext.particular
    assert M([(2, 0), (0, 3)]) @ X == M([(2,), (3,)])
    assert (ext.kernel.rows, ext.kernel.cols) == (2, 0)
    assert M([(2, 0), (0, 3)]) @ ext.kernel == IntMatrix([(), ()])


def test_extend_homomorphism_obstruction():
    # values on an index-2 sublattice of Z^2 that force a half-integral value
    B = M([(1, 1), (0, 2)])
    W = M([(1, 1, 1), (0, 1, 2)])
    ext, obs = extend_homomorphism(B, W)
    assert ext is None
    assert isinstance(obs, ExtensionObstruction)
    assert obs.multiplier == 2
    assert obs.element == (0, 1)
    assert obs.required == (0, 1, 2)
    # certificate is independently checkable
    scaled = tuple(obs.multiplier * x for x in obs.element)
    assert hermite_row_basis(B.row_list(), width=2) == B.row_list()  # already Hermite
    c = hermite_coefficients(B.row_list(), scaled)
    assert c is not None
    assert hermite_coefficients(B.row_list(), obs.element) is None
    val = tuple(
        sum(ci * W[i, j] for i, ci in enumerate(c)) for j in range(W.cols)
    )
    assert val == obs.required
    assert any(x % obs.multiplier for x in obs.required)


def test_extension_obstructions_are_certificates():
    """For every obstruction, multiplier * element is c @ B for an integral c
    with c @ W = required, and required is not divisible by the multiplier."""
    rng = random.Random(1203)
    obstructions = 0
    for _ in range(200):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        m = rng.randint(1, n)
        B = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        W = M([[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)])
        if matrix_rank(B) < m:
            continue  # values on dependent rows need not be consistent
        ext, obs = extend_homomorphism(B, W)
        if obs is None:
            assert B @ ext.particular == W
            continue
        obstructions += 1
        scaled = [obs.multiplier * x for x in obs.element]
        c = solve_integer_linear(B.T, scaled)
        assert c is not None and not c.kernel_basis, (B, W, obs)
        assert W.left_apply(c.particular) == obs.required
        assert any(x % obs.multiplier for x in obs.required)
    assert obstructions >= 60, obstructions


def test_extend_homomorphism_underdetermined_kernel():
    # prescribe on a rank-1 subgroup of Z^2; extensions differ by Z
    B = M([(1, 0)])
    W = M([(5,)])
    ext, obs = extend_homomorphism(B, W)
    assert obs is None and ext is not None
    assert (ext.kernel.rows, ext.kernel.cols) == (2, 1)
    assert B @ ext.kernel == M([(0,)])
    assert (B @ ext.particular) == W


def test_extend_homomorphism_zero_row_basis_is_free():
    # nothing prescribed: every 3 x 2 matrix extends, N is the identity
    ext, obs = extend_homomorphism(IntMatrix((), cols=3), IntMatrix((), cols=2))
    assert obs is None
    assert ext.particular == IntMatrix([(0, 0), (0, 0), (0, 0)])
    assert ext.kernel == IntMatrix.identity(3)


def test_extend_homomorphism_inconsistent():
    B = M([(1, 0), (2, 0)])
    W = M([(1,), (3,)])
    with pytest.raises(ValueError):
        extend_homomorphism(B, W)


# -- Hilbert bases -------------------------------------------------------------


def _hilbert(rows, rank):
    h = hermite_row_basis(rows, width=rank)
    return hilbert_basis(h, oracles.effective_cone_rays(h))


HILBERT_GOLDEN = [
    ([(1, 1), (0, 2)], 2, ((0, 2), (1, 1), (2, 0))),
    ([(1, 0), (0, 1)], 2, ((0, 1), (1, 0))),
    ([(2,)], 1, ((2,),)),
    ([(1, 2, 3)], 3, ((1, 2, 3),)),
    ([(1, -1)], 2, ()),
    ([(1, 1)], 2, ((1, 1),)),
    ([(2, 0), (0, 3)], 2, ((2, 0), (0, 3))),  # sorted by coordinate sum
]


@pytest.mark.parametrize("basis,rank,expected", HILBERT_GOLDEN)
def test_hilbert_golden(basis, rank, expected):
    assert _hilbert(basis, rank) == expected


def test_hilbert_against_bruteforce():
    cases = [
        ([(1, 1), (0, 2)], 2, 4),
        ([(1, 1), (0, 3)], 2, 6),
        ([(2, 1), (0, 5)], 2, 10),
        ([(1, 1, 1), (0, 1, 2)], 3, 6),
        ([(1, 0, 1), (0, 1, 1)], 3, 4),
    ]
    for basis, rank, box in cases:
        got = set(_hilbert(basis, rank))
        want = set(oracles.hilbert_basis_bruteforce(basis, box))
        assert got == want, (basis, got, want)


def test_hilbert_generates_semigroup():
    basis = [(1, 1), (0, 3)]
    hb = _hilbert(basis, 2)
    # every small member of lattice ∩ orthant is an N-combination of hb
    members = {
        p
        for p in oracles.lattice_points_from_basis(basis, 12)
        if all(0 <= x <= 6 for x in p)
    }
    reachable = {(0, 0)}
    frontier = True
    while frontier:
        frontier = False
        for p in list(reachable):
            for g in hb:
                q = (p[0] + g[0], p[1] + g[1])
                if q not in reachable and all(x <= 6 for x in q):
                    reachable.add(q)
                    frontier = True
    assert members <= reachable


def test_hilbert_matches_box_search(monkeypatch):
    # the box search it replaced, on 500 seeded lattices of rank 1-5; its
    # point guard is lowered so that a costly box is refused quickly
    monkeypatch.setattr(oracles, "MAX_HILBERT_POINTS", 20_000)
    rng = random.Random(5)
    compared = lower_rank = non_simplicial = 0
    for _ in range(500):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n))]
        try:
            want = oracles.hilbert_basis_by_box(rows, n)
        except ResourceLimitError:
            continue
        assert _hilbert(rows, n) == want, rows
        compared += 1
        h = hermite_row_basis(rows, width=n)
        rays = oracles.effective_cone_rays(h)
        lower_rank += len(h) < n
        non_simplicial += len(rays) > matrix_rank(IntMatrix(rays))
    assert compared >= 450 and lower_rank >= 250 and non_simplicial >= 20


def test_hilbert_matches_sieve_oracle(monkeypatch):
    # the tuple listing and sieve it replaced, on 640 seeded lattices of
    # rank 1-5; every third is of rank 3 or 4 in Z^5, whose effective cone is
    # often not simplicial, and every third has one coordinate scaled past
    # 2^64, which widens the packed fields.  The point guard is lowered so
    # that a costly lattice is refused quickly
    monkeypatch.setattr(lattice, "MAX_HILBERT_POINTS", 10_000)
    rng = random.Random(20)
    compared = lower_rank = several_simplices = past_64_bits = 0
    for draw in range(640):
        if draw % 3 == 1:
            n, k = 5, rng.randint(3, 4)
        else:
            n = rng.randint(1, 5)
            k = rng.randint(1, n)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        if draw % 3 == 2:
            c, scale = rng.randrange(n), 2**64 + rng.randint(1, 2**32)
            rows = [r[:c] + (r[c] * scale,) + r[c + 1 :] for r in rows]
        h = hermite_row_basis(rows, width=n)
        rays = oracles.effective_cone_rays(h)
        try:
            got = hilbert_basis(h, rays)
        except ResourceLimitError:
            continue
        assert got == oracles.hilbert_basis_by_sieve(h, rays), rows
        compared += 1
        lower_rank += len(h) < n
        several_simplices += len(rays) > matrix_rank(IntMatrix(rays))
        past_64_bits += any(x > 2**64 for g in got for x in g)
    assert compared >= 500
    assert lower_rank >= 300 and several_simplices >= 50 and past_64_bits >= 100


def test_hilbert_index_72_lattice():
    # one simplex, whose Smith factors 1, 2, 36, 72, 72 give 373,248
    # parallelepiped points, listed under the default guard
    rows = [(1, -2, 0, -2, -1), (1, -3, 2, 3, 2), (-1, 2, -3, -3, 0), (-2, 3, 1, -3, -1), (-2, 3, 0, 2, 0)]
    hb = _hilbert(rows, 5)
    assert len(hb) == 217
    assert hb[0] == (0, 0, 4, 0, 0) and hb[-1] == (72, 0, 0, 0, 0)


def test_hilbert_guard():
    # {x in Z^4 : sum(x) = 0 mod 100}: the orthant's simplex holds
    # 100^4 / 100 = 10^6 parallelepiped points, counted before any is listed
    basis = [(1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1), (0, 0, 0, 100)]
    with pytest.raises(ResourceLimitError, match="reached 1000000"):
        _hilbert(basis, 4)


def test_hilbert_full_lattice_skips_guard():
    # no branch of its own: one simplex, Smith factors all 1, and no
    # parallelepiped point past the origin, so one point under any guard
    units = [tuple(1 if j == i else 0 for j in range(17)) for i in range(17)]
    assert _hilbert(units, 17) == tuple(sorted(units))


def test_hilbert_point_limit(monkeypatch):
    monkeypatch.setattr(lattice, "MAX_HILBERT_POINTS", 1)
    with pytest.raises(ResourceLimitError):
        _hilbert([(1, 1), (0, 2)], 2)
