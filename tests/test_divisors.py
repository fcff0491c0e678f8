import itertools
import random

import pytest

import fangen
from toriclift import divisors, lattice, polyhedra
from toriclift.divisors import (
    DivisorSubgroup,
    SubgroupValidationError,
    cartier_lattice,
    cox_subgroup,
    divisor_subgroup,
    enough_divisors,
    kajiwara_subgroup,
    principal_basis,
)
from toriclift.fan import split_torus_factor, validate_fan
from toriclift.lattice import (
    FgAbGroup,
    IntMatrix,
    hermite_coefficients,
    hermite_row_basis,
    primitive_vector,
    solve_integer_linear,
    vec_dot,
)

import oracles


def projective_plane():
    return validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def quadric_cone():
    # A^2 / (Z/2): rays (1,0) and (1,2), one smooth-failing cone
    return validate_fan(2, [(1, 0), (1, 2)], [(0, 1)])


def unit_square_cone():
    # cone over the unit square: the affine threefold xy = zw
    return validate_fan(
        3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], [(0, 1, 2, 3)]
    )


def diamond_cone():
    return validate_fan(
        3, [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], [(0, 1, 2, 3)]
    )


def wedge_pair_fan():
    # two opposite 2-dimensional wedges meeting only at the origin
    return validate_fan(
        2,
        [(-1, -4), (-1, 0), (1, 0), (1, 4)],
        [(0, 1), (2, 3)],
    )


# -- principal divisors ---------------------------------------------------------


def test_principal_basis_quadric():
    fan = quadric_cone()
    assert fan.rays == ((1, 0), (1, 2))
    assert principal_basis(fan) == ((1, 1), (0, 2))
    assert oracles.principal_divisor(fan, (1, 0)) == (1, 1)
    assert oracles.principal_divisor(fan, (0, 1)) == (0, 2)
    principal = hermite_row_basis(principal_basis(fan), width=fan.n_rays)
    assert hermite_coefficients(principal, (1, 1)) is not None
    assert hermite_coefficients(principal, (2, 0)) is not None  # 2*(1,1) - (0,2)
    assert hermite_coefficients(principal, (1, 0)) is None


# -- class group -----------------------------------------------------------------


def test_class_group_quadric_is_z2():
    data = cox_subgroup(quadric_cone()).grading_cokernel
    assert data.group == FgAbGroup(0, (2,))
    assert data.project((1, 1)) == (0,)
    assert data.project((2, 0)) == (0,)
    assert data.project((1, 0)) == (1,)
    assert data.project((1, 0)) == data.project((0, 1))


def test_class_group_p2_is_z():
    fan = projective_plane()
    data = cox_subgroup(fan).grading_cokernel
    assert data.group == FgAbGroup(1, ())
    classes = [
        data.project(tuple(1 if j == i else 0 for j in range(3)))
        for i in range(3)
    ]
    assert classes[0] == classes[1] == classes[2]
    assert abs(classes[0][0]) == 1
    # the anticanonical divisor (1,1,1) has degree 3
    assert data.project((1, 1, 1)) == (3 * classes[0][0],)


def test_class_group_unit_square_cone_is_z():
    data = cox_subgroup(unit_square_cone()).grading_cokernel
    assert data.group == FgAbGroup(1, ())


def test_class_group_diamond_cone():
    # the diamond lattice square gives an extra 2-torsion class
    data = cox_subgroup(diamond_cone()).grading_cokernel
    assert data.group == FgAbGroup(1, (2,))


def test_class_group_degenerate_and_torus():
    fan = validate_fan(3, [(1, 0, 0), (0, 1, 0)], [(0, 1)])
    assert cox_subgroup(fan).grading_cokernel.group == FgAbGroup(0)
    torus = validate_fan(2, [], [])
    data = cox_subgroup(torus).grading_cokernel
    assert data.group == FgAbGroup(0)
    assert data.project(()) == ()


def test_class_group_survives_splitting_the_torus_factor():
    # Cl is the cokernel of M -> Z^rays, and splitting off the torus factor
    # leaves the image of M unchanged (Cox-Little-Schenck, Theorem 4.1.3)
    rng = random.Random(5)
    degenerate = 0
    for _ in range(500):
        fan = fangen.random_fan(rng, torus_rank=rng.randint(0, 2))
        reduced = split_torus_factor(fan).reduced_fan
        degenerate += fan.is_degenerate
        group = cox_subgroup(fan).grading_cokernel.group
        assert group == cox_subgroup(reduced).grading_cokernel.group, fan.rays
    assert degenerate >= 300  # 342 of the 500 fans of this seed


def test_generator_divisors_project_to_generators():
    for fan in [projective_plane(), quadric_cone(), diamond_cone()]:
        data = cox_subgroup(fan).grading_cokernel
        k = data.group.n_generators
        for i, lift in enumerate(data.generator_lifts):
            assert data.project(lift) == tuple(
                1 if j == i else 0 for j in range(k)
            )


# -- Cartier divisors --------------------------------------------------------------


def test_cartier_on_quadric():
    fan = quadric_cone()
    assert oracles.cartier_data(fan, (1, 0)) is None
    # no local character on max cone 0, the only one
    assert solve_integer_linear(IntMatrix(fan.cone_rays(fan.max_cones[0])), [1, 0]) is None
    data = oracles.cartier_data(fan, (1, 1))
    assert data is not None
    m = data[0]
    for i, ray in enumerate(fan.rays):
        assert vec_dot(m, ray) == (1, 1)[i]


def test_cartier_lattice_quadric():
    fan = quadric_cone()
    assert cartier_lattice(fan, cox_subgroup(fan).basis) == ((1, 1), (0, 2))


def test_cartier_lattice_smooth_is_everything():
    fan = projective_plane()
    assert cartier_lattice(fan, cox_subgroup(fan).basis) == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )


def test_cartier_lattice_unit_square_cone():
    fan = unit_square_cone()
    cart = cartier_lattice(fan, cox_subgroup(fan).basis)
    # Cartier = principal here (local character must be global on one cone)
    assert hermite_coefficients(cart, oracles.principal_divisor(fan, (1, 0, 0))) is not None
    for c in cart:
        assert oracles.cartier_data(fan, c) is not None
    assert hermite_coefficients(cart, (1, 0, 0, 0)) is None
    assert len(cart) == 3


def test_cartier_data_multicone():
    fan = projective_plane()
    d = (1, 0, 0)
    data = oracles.cartier_data(fan, d)
    assert data is not None
    for ci, cone in enumerate(fan.max_cones):
        m = data[ci]
        for i in cone:
            assert vec_dot(m, fan.rays[i]) == d[i]


# -- divisor subgroups --------------------------------------------------------------


def test_cox_subgroup_quadric():
    sub = cox_subgroup(quadric_cone())
    assert sub.basis == ((1, 0), (0, 1))
    assert sub.effective_generators == ((0, 1), (1, 0))
    assert sub.contains((5, -3))
    assert sub.coefficients((2, 3)) == (2, 3)


def test_kajiwara_subgroup_quadric():
    sub = kajiwara_subgroup(quadric_cone())
    assert sub.basis == ((1, 1), (0, 2))
    assert sub.effective_generators == ((0, 2), (1, 1), (2, 0))
    assert sub.contains((1, 1)) and not sub.contains((1, 0))


def test_kajiwara_coefficients_outside_the_lattice():
    # (0, 1) lies in the rational span of <(1, 1), (0, 2)> but not in it
    sub = kajiwara_subgroup(quadric_cone())
    assert sub.coefficients((0, 1)) is None
    assert not sub.contains((0, 1))
    assert sub.coefficients((3, 5)) == (3, 1)


def test_coefficients_by_back_substitution_match_smith_solver():
    fans = {
        1: validate_fan(1, [(1,)], [(0,)]),
        2: quadric_cone(),
        3: validate_fan(2, [(0, 1), (1, 0), (1, 1)], [(0, 2), (1, 2)]),
        4: wedge_pair_fan(),
    }
    rng = random.Random(7)
    outside = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [
            [rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))
        ]
        sub = DivisorSubgroup(fan=fans[n], basis=hermite_row_basis(rows, width=n))
        for v in itertools.product(range(-2, 3), repeat=n):
            got = sub.coefficients(v)
            assert got == _integral_coefficients(sub.basis, v), (sub.basis, v)
            assert sub.contains(v) == (got is not None)
            outside += got is None
    assert outside


def _integral_coefficients(basis, v):
    """c with c @ basis = v over Z, or None.  Hermite rows are independent,
    so the rational solution is unique and c exists iff it is integral."""
    x = oracles.solve_rational([[row[j] for row in basis] for j in range(len(v))], v)
    if x is None or any(c.denominator != 1 for c in x):
        return None
    return tuple(int(c) for c in x)


def test_effective_generators_are_computed_once():
    sub = kajiwara_subgroup(quadric_cone())
    first = sub.effective_generators
    assert sub.effective_generators is first
    fresh = DivisorSubgroup(fan=sub.fan, basis=sub.basis)
    assert fresh == sub and hash(fresh) == hash(sub)
    assert fresh.effective_generators == first
    assert fresh.effective_generators is fresh.effective_generators
    assert fresh.effective_cone_rays is fresh.effective_cone_rays
    assert fresh.cartier_members is fresh.cartier_members
    grading = sub.grading_cokernel
    assert sub.grading_cokernel is grading
    assert grading.group == FgAbGroup(0)  # Cartier divisors on an affine cone are principal


def test_subgroup_rejects_dependent_rows():
    fan = quadric_cone()
    with pytest.raises(SubgroupValidationError) as ei:
        divisor_subgroup(fan, [(1, 1), (2, 2)])
    assert any("dependent" in p for p in ei.value.problems)


def test_subgroup_rejects_missing_principal():
    fan = quadric_cone()
    with pytest.raises(SubgroupValidationError) as ei:
        divisor_subgroup(fan, [(1, 0), (0, 4)])
    assert any("principal divisor" in p for p in ei.value.problems)


def test_subgroup_rejects_not_effectively_generated():
    # the subgroup strictly contains the principal lattice but meets the
    # effective orthant only in 0, so effectives + principal regenerate
    # the principal lattice, not the subgroup
    fan = wedge_pair_fan()
    with pytest.raises(SubgroupValidationError) as ei:
        divisor_subgroup(fan, [(1, 1, -1, -1), (0, 2, -2, 0)])
    assert any("effective members" in p for p in ei.value.problems)


def test_principal_subgroup_is_admissible():
    # the principal lattice itself always passes validation
    fan = wedge_pair_fan()
    sub = divisor_subgroup(fan, [(1, 1, -1, -1), (0, 4, -4, 0)])
    assert sub.effective_generators == ()


def test_full_subgroup_on_wedge_fan_is_admissible():
    fan = wedge_pair_fan()
    sub = cox_subgroup(fan)
    assert len(sub.basis) == 4


def test_subgroup_canonicalizes_basis():
    fan = quadric_cone()
    a = divisor_subgroup(fan, [(1, 1), (0, 2)])
    b = divisor_subgroup(fan, [(1, 3), (0, -2)])
    assert a == b
    assert a.basis == ((1, 1), (0, 2))


def test_cartier_members():
    fan = quadric_cone()
    assert cox_subgroup(fan).cartier_members == ((1, 1), (0, 2))
    assert kajiwara_subgroup(fan).cartier_members == ((1, 1), (0, 2))


def test_cartier_data_matches_intersection_oracles():
    """On seeded ``fangen`` fans, some non-simplicial and some with a torus
    factor, the Cartier lattice read off the cones' Smith forms is the
    pairwise intersection it replaced, and the Cartier members of the Cox,
    Kajiwara and custom subgroups, the full lattice's included, are the
    subgroup's intersection with it."""
    seen = dict.fromkeys(
        ["fans", "non_simplicial", "singular", "padded", "full", "all_cartier", "intersected"], 0
    )
    last = None
    for fan, rows in _subgroup_generators(random.Random(2301), 4000):
        if fan is not last:
            cartier = cartier_lattice(fan, cox_subgroup(fan).basis)
            assert cartier == oracles.cartier_lattice_by_intersection(fan), fan
            last = fan
            seen["fans"] += 1
            seen["non_simplicial"] += not fan.is_simplicial
            seen["singular"] += fan.is_simplicial and not fan.is_smooth
            seen["padded"] += fan.is_degenerate
        sub = DivisorSubgroup(fan=fan, basis=hermite_row_basis(rows, width=fan.n_rays))
        assert sub.cartier_members == oracles.cartier_members_by_intersection(sub), sub
        seen["full"] += sub.is_full
        seen["all_cartier"] += fan.is_smooth and not sub.is_full
        seen["intersected"] += not (fan.is_smooth or sub.is_full)
    # 1,000 fans at this seed, 56 of them singular and simplicial; of the
    # subgroups that are not the full lattice, 432 lie on smooth fans and
    # 384 on the others
    assert seen["fans"] >= 1000
    assert min(seen.values()) >= 50, seen


def test_dual_facets_show_smooth_cones():
    """The facet-normal test passes only smooth cones, and passes every
    full-dimensional smooth cone, so the Cartier lattice of a complete
    smooth fan is read without a Smith form."""
    rng = random.Random(2304)
    passed = full_dimensional = 0
    for _ in range(300):
        fan = fangen.random_fan(rng, torus_rank=rng.randint(0, 1))
        for cone, h, snf in zip(fan.max_cones, fan.cone_hreps, fan.cone_snfs):
            shown = divisors._has_dual_facets(fan.cone_rays(cone), h.inequalities)
            smooth = snf.invariant_factors == (1,) * len(cone)
            assert smooth or not shown, cone
            if len(cone) == fan.rank:
                assert shown == smooth, cone
                full_dimensional += smooth
            passed += shown
    # at this seed 381 of 500 cones pass, 182 of them full-dimensional; 55
    # smooth cones of lower dimension are not shown smooth and read their
    # Smith form
    assert passed >= 300 and full_dimensional >= 150, (passed, full_dimensional)
    for fan in (projective_plane(), fangen.product_fan(projective_plane(), projective_plane())):
        units = IntMatrix.identity(fan.n_rays).row_list()
        assert cartier_lattice(fan, units) == units
        assert "cone_snfs" not in vars(fan)


def test_cox_subgroup_is_the_validated_full_lattice():
    # the Cox subgroup is built without validation; validating the unit
    # divisors gives the same subgroup
    rng = random.Random(2302)
    for _ in range(300):
        fan = fangen.random_fan(rng, torus_rank=rng.randint(0, 1))
        units = IntMatrix.identity(fan.n_rays).row_list()
        assert cox_subgroup(fan) == divisor_subgroup(fan, units)


def test_cached_coordinates_give_back_their_divisors():
    kinds = 0
    for sub in _admissible_subgroups(random.Random(2303), 400):
        basis = IntMatrix(sub.basis, cols=sub.fan.n_rays)
        for members, coords in (
            (sub.cartier_members, sub.cartier_coefficients),
            (sub.effective_generators, sub.generator_coefficients),
        ):
            assert [basis.left_apply(c) for c in coords] == list(members)
        kinds += not sub.is_full
    assert kinds >= 40  # 54 of the 400 at this seed are not the full lattice
    full = cox_subgroup(projective_plane())
    assert full.coefficients((1, 0, 2)) == (1, 0, 2)
    with pytest.raises(ValueError, match="length mismatch"):
        full.coefficients((1, 0))


# -- enough effective divisors ---------------------------------------------------


def test_enough_divisors_cox_p2():
    fan = projective_plane()
    rep = enough_divisors(cox_subgroup(fan))
    assert rep.ok
    # witness for each cone: the coordinate divisor of the missing ray
    for ci, cone in enumerate(fan.max_cones):
        w = rep.witnesses[ci]
        assert w is not None
        for i in range(3):
            if i in cone:
                assert w[i] == 0
            else:
                assert w[i] > 0


def test_enough_divisors_affine_trivial():
    rep = enough_divisors(kajiwara_subgroup(quadric_cone()))
    assert rep.ok
    assert rep.witnesses == ((0, 0),)


def test_enough_divisors_principal_on_p2_fails():
    fan = projective_plane()
    sub = divisor_subgroup(fan, principal_basis(fan))
    rep = enough_divisors(sub)
    assert not rep.ok
    assert rep.failing_cones == (0, 1, 2)


def test_enough_divisors_kajiwara_diamond():
    # the diamond cone is affine, so even the small Cartier subgroup works
    rep = enough_divisors(kajiwara_subgroup(diamond_cone()))
    assert rep.ok


def _subgroup_generators(rng, count):
    """Seeded (fan, generators) of admissible subgroups of ``fangen`` fans
    of torus rank 0 or 1: Cox, Kajiwara, and principal divisors plus random
    multiples of unit divisors (admissible, since those multiples are
    effective)."""
    out = []
    while len(out) < count:
        fan = fangen.random_fan(rng, torus_rank=rng.randint(0, 1))
        n = fan.n_rays
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        out += [(fan, units), (fan, cox_subgroup(fan).cartier_members)]
        for _ in range(2):
            gens = list(principal_basis(fan))
            for i in range(n):
                if rng.random() < 0.6:
                    gens.append(tuple(rng.randint(1, 3) if j == i else 0 for j in range(n)))
            out.append((fan, hermite_row_basis(gens, width=n)))
    return out


def _admissible_subgroups(rng, count):
    return [divisor_subgroup(fan, rows) for fan, rows in _subgroup_generators(rng, count)]


def test_enough_divisors_matches_per_cone_oracle():
    failing = 0
    subs = _admissible_subgroups(random.Random(20261018), 1000)
    for sub in subs:
        rep = enough_divisors(sub)
        assert rep.witnesses == oracles.enough_divisors_per_cone(sub), sub.basis
        failing += not rep.ok
        # a primitive coefficient ray's image is the smallest member on its ray
        basis = IntMatrix(sub.basis, cols=sub.fan.n_rays)
        for c in sub.effective_cone_rays:
            image = basis.left_apply(c)
            assert image == oracles.minimal_lattice_multiple(sub.basis, primitive_vector(image))
    assert len(subs) >= 1000
    assert failing >= 20  # 25 subgroups of this seed have failing cones


def test_enough_divisors_takes_one_description_and_no_smith_form(monkeypatch, corpus):
    """Validating a subgroup and checking that it has enough divisors
    describe its effective cone once between them, and not at all for the
    full lattice, whose rays and effective generators are the unit vectors.
    The Hilbert basis, taken once for each other subgroup, takes the
    subgroup's Hermite basis as it is, and the covering check takes no
    Smith form."""
    cases = [
        (fan, rows)
        for fan in corpus.values()
        for rows in (IntMatrix.identity(fan.n_rays).row_list(), cox_subgroup(fan).cartier_members)
    ]
    cases += _subgroup_generators(random.Random(7), 200)
    calls = dict.fromkeys(("dual_description", "smith_normal_form", "hilbert_basis"), 0)
    calls["hermite_row_basis in hilbert_basis"] = 0
    in_hilbert = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def hermite(*args, **kwargs):
        calls["hermite_row_basis in hilbert_basis"] += bool(in_hilbert)
        return hermite_row_basis(*args, **kwargs)

    def hilbert(*args):
        calls["hilbert_basis"] += 1
        in_hilbert.append(True)
        try:
            return lattice.hilbert_basis(*args)
        finally:
            in_hilbert.pop()

    monkeypatch.setattr(polyhedra, "dual_description", counted("dual_description", polyhedra.dual_description))
    monkeypatch.setattr(lattice, "smith_normal_form", counted("smith_normal_form", lattice.smith_normal_form))
    monkeypatch.setattr(lattice, "hermite_row_basis", hermite)
    monkeypatch.setattr(divisors, "hilbert_basis", hilbert)
    described = 0
    for fan, rows in cases:
        calls["dual_description"] = 0
        sub = divisor_subgroup(fan, rows)
        calls["smith_normal_form"] = 0
        enough_divisors(sub)
        full = sub.basis == IntMatrix.identity(fan.n_rays).row_list()
        assert calls["dual_description"] == (0 if full else 1), sub.basis
        assert calls["smith_normal_form"] == 0
        described += not full
    assert calls["hilbert_basis"] == described
    assert calls["hermite_row_basis in hilbert_basis"] == 0
    # every patch is live
    assert described >= 30  # 36 at this seed
    in_hilbert.append(True)
    lattice.hermite_row_basis([(1, 0)])
    assert calls["hermite_row_basis in hilbert_basis"] == 1
    oracles.minimal_lattice_multiple(((1, 1), (0, 2)), (0, 1))
    assert calls["smith_normal_form"] > 0
