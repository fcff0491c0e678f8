"""Acceptance gate: one test per shipping criterion, one printed line each.

Every check is exact integer arithmetic — there are no tolerances anywhere.
Each test prints ``ACCEPTANCE PASS — <label>`` (or FAIL) so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import fangen
import oracles
from toriclift.divisors import (
    DivisorSubgroup,
    cox_subgroup,
    divisor_subgroup,
    enough_divisors,
    kajiwara_subgroup,
    principal_basis,
)
from toriclift.fan import split_torus_factor
from toriclift.isomorphism import FanIso, toric_isomorphism, verify_fan_iso
from toriclift.lattice import ExtensionObstruction, FgAbGroup, IntMatrix, hermite_row_basis
from toriclift.lifting import solve_geometric_pullback, validate_toric_morphism
from toriclift.presentation import presentation_from_subgroup


@contextmanager
def gate(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL — {label}")
        raise
    print(f"ACCEPTANCE PASS — {label}")


def test_criterion_1_singular_target_counterexample(corpus):
    with gate("criterion 1: blow-up over the quadric cone has no lifting, "
              "certified by a forced doubling equation"):
        src, dst = corpus["subdivided"], corpus["quadric"]
        f = validate_toric_morphism(src, dst, IntMatrix.identity(2))
        report = solve_geometric_pullback(f, cox_subgroup(dst), cox_subgroup(src))
        assert report.exists is False
        ob = report.obstruction
        assert isinstance(ob, ExtensionObstruction)
        # twice the divisor of the target ray (1,2) pulls back to the
        # divisor with coefficients (0,1,2) on the source rays
        # (1,0),(1,1),(1,2) — odd on the middle ray, so not divisible
        assert ob.multiplier == 2
        assert ob.element == (0, 1)
        assert ob.required == (0, 1, 2)
        assert report.phi is None and report.witness_classes == ()


def test_criterion_2_smooth_target_unique_strict_transform(corpus):
    with gate("criterion 2: lifts over smooth targets are unique and equal "
              "the strict transform"):
        for src_name, dst_name in [("blowup", "plane"), ("f1", "p2")]:
            src, dst = corpus[src_name], corpus[dst_name]
            f = validate_toric_morphism(src, dst, IntMatrix.identity(2))
            target_sub = cox_subgroup(dst)
            report = solve_geometric_pullback(f, target_sub, cox_subgroup(src))
            assert report.exists is True
            assert len(report.witness_classes) == 1
            assert report.uniqueness_note == "unique"
            expected = [list(oracles.strict_transform(f, row)) for row in target_sub.basis]
            assert report.phi.to_lists() == expected


def test_criterion_3_class_groups_match_snf_oracle(corpus):
    expected = {
        "quadric": FgAbGroup(0, (2,)),
        "p2": FgAbGroup(1),
        "f1": FgAbGroup(2),
        "plane": FgAbGroup(0),
    }
    with gate("criterion 3: class groups match the randomized-pivot "
              "elimination oracle"):
        for name, group in expected.items():
            fan = corpus[name]
            assert cox_subgroup(fan).grading_cokernel.group == group
            rows = [list(r) for r in principal_basis(fan)]
            for seed in range(5):
                diag = oracles.snf_diagonal_randomized(rows, seed)
                oracle_group = FgAbGroup(
                    free_rank=fan.n_rays - len(diag),
                    torsion=tuple(d for d in diag if d > 1),
                )
                assert oracle_group == group, (name, seed, diag)


def test_criterion_4_covering_property(corpus):
    with gate("criterion 4: full divisor group covers every corpus fan, "
              "principal divisors fail on the projective plane, Cartier "
              "mode on the quadric cone has trivial grading"):
        for fan in corpus.values():
            assert enough_divisors(cox_subgroup(fan)).ok
        p2 = corpus["p2"]
        principal_only = divisor_subgroup(p2, principal_basis(p2))
        report = enough_divisors(principal_only)
        assert not report.ok
        assert report.failing_cones == (0, 1, 2)  # one certificate per chart
        assert report.witnesses == (None, None, None)
        pres = presentation_from_subgroup(kajiwara_subgroup(corpus["quadric"]))
        assert pres.grading_group == FgAbGroup(0)
        assert pres.enough.ok


def test_criterion_5_grading_factorization(corpus):
    with gate("criterion 5: grading factorizations compose to zero with "
              "exact rank/torsion bookkeeping on every corpus pair"):
        pairs = 0
        for fan in corpus.values():
            if fan.is_degenerate:  # presentations want the torus factor gone
                fan = split_torus_factor(fan).reduced_fan
            for subgroup in (cox_subgroup, kajiwara_subgroup):
                gf = oracles.grading_factorization(presentation_from_subgroup(subgroup(fan)))
                assert gf.composite_is_zero
                assert gf.ranks_additive
                assert gf.orders_multiplicative in (None, True)
                pairs += 1
        assert pairs == 2 * len(corpus)


def _invert_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse over Q, asserted integral (independent of the package's
    integer linear algebra)."""
    n = m.rows
    a = [[Fraction(m[i, j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = a[c][c]
        a[c] = [x / inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    out = [[a[i][n + j] for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in out for x in row)
    return IntMatrix([[int(x) for x in row] for row in out], cols=n)


def _inverse_perm(perm):
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


def test_criterion_6_isomorphism_suite(corpus):
    with gate("criterion 6: 100 conjugation round-trips verify, negative "
              "pairs refuse, symmetry and inverse matrices check out"):
        rng = random.Random(61)
        for trial in range(100):
            torus = rng.choice((0, 0, 0, 1, 2))
            a = fangen.random_fan(rng, max_rank=3, torus_rank=torus)
            u = fangen.random_unimodular(a.rank, rng)
            b = fangen.conjugate_fan(a, u)

            rep = toric_isomorphism(a, b)
            assert rep.isomorphic, (trial, a, b)
            assert rep.torus_ranks[0] == rep.torus_ranks[1]
            ra = split_torus_factor(a).reduced_fan
            rb = split_torus_factor(b).reduced_fan
            assert verify_fan_iso(ra, rb, rep.iso) == []

            # symmetry: the reversed query answers yes with a verified map
            rev = toric_isomorphism(b, a)
            assert rev.isomorphic
            assert verify_fan_iso(rb, ra, rev.iso) == []

            # the inverse matrix with inverted bijections is itself an iso
            if ra.rank:
                inv = FanIso(
                    matrix=_invert_unimodular(rep.iso.matrix),
                    ray_bijection=_inverse_perm(rep.iso.ray_bijection),
                    cone_bijection=_inverse_perm(rep.iso.cone_bijection),
                )
                assert verify_fan_iso(rb, ra, inv) == []

        for first, second in [("quadric", "plane"), ("p2", "f1")]:
            rep = toric_isomorphism(corpus[first], corpus[second])
            assert not rep.isomorphic
            assert toric_isomorphism(corpus[second], corpus[first]).isomorphic is False


def test_criterion_7_functoriality_locks(corpus):
    with gate("criterion 7: 100 random character pullbacks obey the "
              "transpose rule; Cartier local data reproduces coefficients"):
        pool = [
            (corpus["blowup"], corpus["plane"], IntMatrix.identity(2)),
            (corpus["subdivided"], corpus["quadric"], IntMatrix.identity(2)),
            (corpus["f1"], corpus["p2"], IntMatrix.identity(2)),
            (corpus["line"], corpus["diamond"], IntMatrix([(1,), (0,), (3,)])),
            (corpus["line"], corpus["diamond"], IntMatrix([(0,), (1,), (1,)])),
            (corpus["plane"], corpus["line"], IntMatrix([[1, 0]], cols=2)),
            (corpus["diamond"], corpus["line"], IntMatrix([[0, 0, 1]], cols=3)),
            (corpus["line"], corpus["line"], IntMatrix([[3]], cols=1)),
            (corpus["plane"], corpus["plane"], IntMatrix([[1, 1], [0, 1]], cols=2)),
        ]
        rng = random.Random(71)
        for trial in range(100):
            src, dst, base = rng.choice(pool)
            w = fangen.random_unimodular(dst.rank, rng)
            twisted = fangen.conjugate_fan(dst, w)
            f = validate_toric_morphism(src, twisted, w @ base)
            m = tuple(rng.randint(-9, 9) for _ in range(twisted.rank))
            div = oracles.principal_divisor(twisted, m)
            cd = oracles.cartier_data(twisted, div)
            assert cd is not None  # principal divisors are always Cartier
            pulled = f.pull_back_cartier(div)
            assert pulled == oracles.pullback_cartier(f, cd), trial
            assert pulled == oracles.principal_divisor(src, f.matrix.left_apply(m)), trial

        # round trip: principal -> local characters -> same coefficients
        for fan in corpus.values():
            for _ in range(3):
                m = tuple(rng.randint(-5, 5) for _ in range(fan.rank))
                div = oracles.principal_divisor(fan, m)
                cd = oracles.cartier_data(fan, div)
                assert cd is not None
                for ci, cone in enumerate(fan.max_cones):
                    char = cd[ci]
                    for ri in cone:
                        ray = fan.rays[ri]
                        assert sum(c * x for c, x in zip(char, ray)) == div[ri]


# -- criterion 8 machinery: an integer-only membership oracle ---------------------


def _int_det(a):
    n = len(a)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # parity by counting inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= a[i][perm[i]]
        total += sign * term
    return total


def _member_tester(basis):
    """Exact membership in the row span over Z, via the scaled normal-equation
    projector: c = adj(GᵗG)·Gᵗ·v / det(GᵗG), then re-multiplied and compared."""
    k = len(basis)
    n = len(basis[0])
    gram = [[sum(basis[i][t] * basis[j][t] for t in range(n)) for j in range(k)]
            for i in range(k)]
    det = _int_det(gram)
    assert det > 0  # basis rows are independent
    adj = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = [[gram[r][c] for c in range(k) if c != i]
                     for r in range(k) if r != j]
            adj[j][i] = (-1) ** (i + j) * _int_det(minor)
    # rows of proj give det * (coefficient of v on basis row i)
    proj = [[sum(adj[i][j] * basis[j][t] for j in range(k)) for t in range(n)]
            for i in range(k)]

    def member(v):
        scaled = [sum(p * x for p, x in zip(row, v)) for row in proj]
        if any(s % det for s in scaled):
            return False
        coeffs = [s // det for s in scaled]
        return all(
            sum(c * basis[i][t] for i, c in enumerate(coeffs)) == v[t]
            for t in range(n)
        )

    return member


def _generated_by(v, gens):
    seen = set()

    def rec(w):
        if not any(w):
            return True
        if w in seen:
            return False
        seen.add(w)
        for g in gens:
            r = tuple(a - b for a, b in zip(w, g))
            if all(x >= 0 for x in r) and rec(r):
                return True
        return False

    return rec(tuple(v))


def test_criterion_8_hilbert_oracle(corpus):
    ambient = {1: corpus["line"], 2: corpus["plane"],
               3: corpus["blowup"], 4: corpus["f1"]}
    with gate("criterion 8: effective generators of 50 random subgroups "
              "generate every small semigroup element and none decomposes"):
        rng = random.Random(99)
        for trial in range(50):
            n = rng.randint(1, 4)
            k = rng.randint(1, n)
            rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
            basis = hermite_row_basis(rows, width=n)
            sub = DivisorSubgroup(fan=ambient[n], basis=basis)
            gens = sub.effective_generators
            if not basis:
                assert gens == ()
                continue
            member = _member_tester(basis)
            assert all(member(g) and all(x >= 0 for x in g) and any(g)
                       for g in gens)

            # completeness: brute-force members with coordinate sum <= 8
            small = [
                v for v in itertools.product(range(9), repeat=n)
                if 0 < sum(v) <= 8 and member(v)
            ]
            for v in small:
                assert _generated_by(v, gens), (trial, v, gens)

            # minimality: no generator splits as a sum of two nonzero members
            for g in gens:
                box = itertools.product(*(range(x + 1) for x in g))
                for q in box:
                    if not any(q) or q == g:
                        continue
                    r = tuple(a - b for a, b in zip(g, q))
                    assert not (member(q) and member(r)), (trial, g, q)
