"""Tests for toric morphisms and lifting to quotient presentations.

Expected values were derived by hand: pullback coefficients pair local
characters with ray images, and the small solve cases reduce to one-variable
integer systems whose solution sets are written out in comments.
"""

import itertools
import os
import random
import subprocess
import sys
from math import gcd, lcm
from pathlib import Path

import pytest

import fangen
import oracles
from toriclift import fan as fan_module
from toriclift import divisors, lattice, lifting
from toriclift.divisors import (
    cox_subgroup,
    divisor_subgroup,
    kajiwara_subgroup,
)
from toriclift.fan import validate_fan
from toriclift.lattice import (
    CokernelData,
    ExtensionObstruction,
    FgAbGroup,
    IntMatrix,
    ResourceLimitError,
    hermite_coefficients,
    hermite_row_basis,
)
from toriclift.lifting import (
    MAX_WITNESS_CLASSES,
    ContainmentFailureCertificate,
    EffectivityFailureCertificate,
    LiftingReport,
    MorphismValidationError,
    _effective_points,
    _projections,
    classify_liftings,
    solve_geometric_pullback,
    validate_toric_morphism,
    verify_pullback_witness,
)


def mk(rank, rays, cones):
    return validate_fan(rank, rays, cones)


@pytest.fixture
def quadric():
    # cone over the affine quadric surface: index-2 singularity
    return mk(2, [(1, 0), (1, 2)], [(0, 1)])


@pytest.fixture
def blowup_line():
    # the quadric cone subdivided along (1, 1)
    return mk(2, [(1, 0), (1, 1), (1, 2)], [(0, 1), (1, 2)])


@pytest.fixture
def plane():
    return mk(2, [(0, 1), (1, 0)], [(0, 1)])


@pytest.fixture
def blowup_origin():
    # plane blown up at the torus-fixed point
    return mk(2, [(0, 1), (1, 0), (1, 1)], [(0, 2), (1, 2)])


@pytest.fixture
def line():
    return mk(1, [(1,)], [(0,)])


@pytest.fixture
def diamond():
    # cone over a square with vertices (+-1, 0), (0, +-1): not simplicial
    return mk(
        3,
        [(-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1)],
        [(0, 1, 2, 3)],
    )


# -- morphism validation ----------------------------------------------------------


class TestValidateMorphism:
    def test_subdivision_into_quadric_is_valid(self, blowup_line, quadric):
        f = validate_toric_morphism(blowup_line, quadric, IntMatrix.identity(2))
        # the interior ray (1, 1) lands inside the quadric cone, the others on its rays
        assert f.ray_faces == ((0,), (0, 1), (1,))
        assert f.ray_image(1) == (1, 1)

    def test_quadric_into_subdivision_is_invalid(self, blowup_line, quadric):
        # the full quadric cone fits in neither half of the subdivision
        with pytest.raises(MorphismValidationError) as exc:
            validate_toric_morphism(quadric, blowup_line, IntMatrix.identity(2))
        assert "[0, 1]" in str(exc.value)

    def test_zero_matrix_is_always_valid(self, blowup_line, quadric):
        f = validate_toric_morphism(quadric, blowup_line, IntMatrix([(0, 0), (0, 0)]))
        assert f.ray_faces == ((), ())

    def test_shape_mismatch(self, quadric, line):
        with pytest.raises(MorphismValidationError):
            validate_toric_morphism(line, quadric, IntMatrix.identity(2))

    def test_identity_morphism(self, quadric):
        f = validate_toric_morphism(quadric, quadric, IntMatrix.identity(2))
        assert f.source == f.target == quadric
        assert f.matrix == IntMatrix.identity(2)


# -- pullback of Cartier divisors -------------------------------------------------


class TestPullbackCartier:
    def test_pullback_along_subdivision(self, blowup_line, quadric):
        f = validate_toric_morphism(blowup_line, quadric, IntMatrix.identity(2))
        # the interior ray (1, 1) is half the sum of the quadric's rays
        assert f.cartier_pullback == (
            IntMatrix([(2, 0), (1, 1), (0, 2)]), (2, 2, 2)
        )
        # 2 * (divisor of second ray) has local character (0, 1)
        cd = oracles.cartier_data(quadric, (0, 2))
        assert cd is not None
        assert oracles.pullback_cartier(f, cd) == (0, 1, 2)
        assert f.pull_back_cartier((0, 2)) == (0, 1, 2)

    def test_non_cartier_divisor_leaves_a_remainder(self, blowup_line, quadric):
        # (1, 0) has no local character on the quadric cone, and its pullback
        # at the interior ray would be 1/2
        f = validate_toric_morphism(blowup_line, quadric, IntMatrix.identity(2))
        assert oracles.cartier_data(quadric, (1, 0)) is None
        with pytest.raises(ValueError, match="not Cartier"):
            f.pull_back_cartier((1, 0))

    def test_zero_images_pull_back_to_zero(self, line, quadric):
        f = validate_toric_morphism(quadric, line, IntMatrix([(0, 0)]))
        assert f.cartier_pullback == (IntMatrix([(0,), (0,)]), (1, 1))
        assert f.pull_back_cartier((5,)) == (0, 0)
        # the torus, a fan with no max cone, takes only zero images
        torus = validate_fan(1, [], [])
        assert validate_toric_morphism(line, torus, IntMatrix([(0,)])).pull_back_cartier(()) == (0,)

    def test_functoriality_on_a_chain(self, plane, line):
        # line --(1,1)--> plane --[[1,0],[1,1]]--> plane
        outer = validate_toric_morphism(
            plane, plane, IntMatrix([(1, 0), (1, 1)])
        )
        inner = validate_toric_morphism(line, plane, IntMatrix([(1,), (1,)]))
        composed = validate_toric_morphism(
            line, plane, IntMatrix([(1, 0), (1, 1)]) @ IntMatrix([(1,), (1,)])
        )
        d = (2, 3)
        cd = oracles.cartier_data(plane, d)
        step = oracles.pullback_cartier(outer, cd)
        assert step == (2, 5) == outer.pull_back_cartier(d)
        cd_mid = oracles.cartier_data(plane, step)
        assert oracles.pullback_cartier(inner, cd_mid) == (7,) == inner.pull_back_cartier(step)
        assert oracles.pullback_cartier(composed, cd) == (7,) == composed.pull_back_cartier(d)

    def test_forced_values_take_no_new_smith_form(self, monkeypatch, line, quadric, diamond):
        # the forced values of stage (a) and their re-verification on a yes
        # read the pullback matrix, built from the target's cached cone Smith
        # forms: no solve and no further Smith form
        cases = [
            (quadric, quadric, IntMatrix.identity(2)),
            (line, diamond, IntMatrix([(1,), (0,), (3,)])),
        ]
        warm = []
        for source, target, matrix in cases:
            f = validate_toric_morphism(source, target, matrix)
            t_sub, s_sub = cox_subgroup(target), cox_subgroup(source)
            report = solve_geometric_pullback(f, t_sub, s_sub)
            assert report.verdict == "yes" and t_sub.cartier_members
            warm.append((validate_toric_morphism(source, target, matrix), t_sub, s_sub, report))
        calls = []

        def counted(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("smith_normal_form", "solve_integer_linear"):
            for module in (lattice, fan_module, divisors, lifting):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for f, t_sub, s_sub, report in warm:
            for c in t_sub.cartier_members:
                f.pull_back_cartier(c)
            assert not verify_pullback_witness(
                f, t_sub, s_sub, report.phi, conditions=not f.target.is_simplicial
            )
        assert calls == []

    def test_matrix_matches_local_character_oracle(self, line):
        """On seeded morphisms between ``fangen`` fans, the matrix pullback of
        every Cartier member of the target's Cox and Kajiwara subgroups is
        the pullback through local characters."""
        rng = random.Random(2121)
        seen = dict.fromkeys(
            ["morphisms", "members", "non_simplicial", "singular", "zero_image",
             "face_interior", "padded_source"], 0
        )
        for _ in range(1600):
            source = fangen.random_fan(rng, torus_rank=rng.randint(0, 1))
            branch = rng.random()
            if branch < 0.2:
                # a change of basis: every ray image is a target ray
                matrix = fangen.random_unimodular(source.rank, rng)
                target = fangen.conjugate_fan(source, matrix)
            elif branch < 0.4:
                # the line onto a sum of rays of one target max cone: an image
                # interior to the face those rays span
                source = line
                target = fangen.random_fan(rng)
                cone = rng.choice(target.max_cones)
                picked = [target.rays[i] for i in cone if rng.random() < 0.6]
                matrix = IntMatrix(
                    [(sum(r[k] for r in picked),) for k in range(target.rank)], cols=1
                )
            else:
                target = fangen.random_fan(rng)
                matrix = IntMatrix(
                    [[rng.randint(-2, 2) for _ in range(source.rank)]
                     for _ in range(target.rank)],
                    cols=source.rank,
                )
            try:
                f = validate_toric_morphism(source, target, matrix)
            except MorphismValidationError:
                continue
            for sub in (cox_subgroup(target), kajiwara_subgroup(target)):
                for c in sub.cartier_members:
                    want = oracles.pullback_cartier(f, oracles.cartier_data(target, c))
                    assert f.pull_back_cartier(c) == want, (source, target, matrix, c)
                    seen["members"] += 1
            seen["morphisms"] += 1
            seen["non_simplicial"] += not target.is_simplicial
            seen["singular"] += target.is_simplicial and not target.is_smooth
            seen["zero_image"] += () in f.ray_faces
            seen["face_interior"] += any(
                len(face) > 1 and face not in target.max_cones for face in f.ray_faces
            )
            seen["padded_source"] += source.is_degenerate
        # 885 morphisms, 4,270 members, and 41 to 308 of each kind at this seed
        assert min(seen.values()) >= 30, seen


class TestStrictTransform:
    def test_blowup_of_plane(self, blowup_origin, plane):
        f = validate_toric_morphism(blowup_origin, plane, IntMatrix.identity(2))
        # divisor of the ray (1, 0): transform picks up the exceptional ray
        assert oracles.strict_transform(f, (0, 1)) == (0, 1, 1)
        assert oracles.strict_transform(f, (1, 0)) == (1, 0, 1)

    def test_one_smith_form_per_source_ray(self, monkeypatch, blowup_origin, plane):
        # the face's Smith form both tests smoothness and solves for the
        # local character: 3 forms for 3 source rays
        f = validate_toric_morphism(blowup_origin, plane, IntMatrix.identity(2))
        assert len(f.ray_faces) == 3
        snf, calls = lattice.smith_normal_form, []

        def counted(A):
            calls.append(A)
            return snf(A)

        for module in (lattice, fan_module):
            monkeypatch.setattr(module, "smith_normal_form", counted)
        assert oracles.strict_transform(f, (0, 1)) == (0, 1, 1)
        assert len(calls) == 3

    def test_undefined_when_target_cone_singular(self, line, quadric):
        f = validate_toric_morphism(line, quadric, IntMatrix([(1,), (1,)]))
        assert oracles.strict_transform(f, (1, 0)) is None

    def test_length_check(self, blowup_origin, plane):
        f = validate_toric_morphism(blowup_origin, plane, IntMatrix.identity(2))
        with pytest.raises(ValueError):
            oracles.strict_transform(f, (1, 0, 0))


# -- the lifting solver: definitive no -------------------------------------------


class TestLiftingObstructions:
    def test_subdivision_obstructed_for_full_coordinate_rings(
        self, blowup_line, quadric
    ):
        f = validate_toric_morphism(blowup_line, quadric, IntMatrix.identity(2))
        # the rational pullback of (0, 1) is half a divisor, so the staged
        # path certifies the no
        assert lifting._rational_pullback(f, cox_subgroup(quadric)) is None
        report = solve_geometric_pullback(
            f, cox_subgroup(quadric), cox_subgroup(blowup_line)
        )
        assert report.verdict == "no"
        assert report.exists is False
        ob = report.obstruction
        assert isinstance(ob, ExtensionObstruction)
        assert ob.multiplier == 2
        assert ob.element == (0, 1)
        assert ob.required == (0, 1, 2)
        text = classify_liftings(report, 2)
        assert "2 * phi([0, 1]) = [0, 1, 2]" in text
        assert "no integral solution" in text

    def test_containment_failure_certificate(self, quadric):
        # identity on the quadric, but the source presentation only admits
        # principal divisors: the coordinate divisors cannot decompose
        f = validate_toric_morphism(quadric, quadric, IntMatrix.identity(2))
        principal_only = divisor_subgroup(quadric, [(1, 1), (0, 2)])
        report = solve_geometric_pullback(
            f, cox_subgroup(quadric), principal_only
        )
        assert report.verdict == "no"
        ob = report.obstruction
        assert isinstance(ob, ContainmentFailureCertificate)
        assert ob.basis_indices == (0, 1)
        assert "subgroup member + principal divisor" in classify_liftings(report, 2)

    def test_joint_containment_failure(self):
        # each row of the extension can be moved into the index-2 Kajiwara
        # subgroup of the source on its own, but no one choice moves all four
        source = mk(2, [(0, -1), (2, -1)], [(0, 1)])
        target = mk(
            3, [(-2, 13, -6), (1, -8, 4), (1, -4, 2), (4, -25, 12)], [(0, 1, 2, 3)]
        )
        f = validate_toric_morphism(source, target, IntMatrix([(2, 1), (0, 0), (1, -2)]))
        report = solve_geometric_pullback(f, cox_subgroup(target), kajiwara_subgroup(source))
        assert report.verdict == "no" and not f.target.is_simplicial
        assert report.obstruction == ContainmentFailureCertificate(basis_indices=())
        assert (
            "obstruction: no simultaneous containment decomposition exists across the basis rows"
            in classify_liftings(report, 2).splitlines()
        )

    def test_odd_height_image_obstructed_on_nonsimplicial_target(
        self, line, diamond
    ):
        # image (1, 0, 2): the forced value on the index-2 Cartier member is
        # odd, so no integral extension exists
        f = validate_toric_morphism(line, diamond, IntMatrix([(1,), (0,), (2,)]))
        report = solve_geometric_pullback(
            f, cox_subgroup(diamond), cox_subgroup(line)
        )
        assert report.verdict == "no"
        ob = report.obstruction
        assert isinstance(ob, ExtensionObstruction)
        assert ob.multiplier == 2
        assert ob.required[0] % 2 == 1
        cart = cox_subgroup(diamond).cartier_members
        doubled = tuple(2 * x for x in ob.element)
        # cart is a Hermite basis: membership is back-substitution on it
        assert hermite_coefficients(cart, doubled) is not None
        assert hermite_coefficients(cart, ob.element) is None


def test_effectivity_obstruction_lines():
    # the stage (d) certificates of a "no": the rational feasibility test,
    # and a generator's pullback with nothing left to move it
    def lines(certificate):
        report = LiftingReport(
            verdict="no", uniqueness_note="no lifting exists", obstruction=certificate
        )
        return classify_liftings(report, 2).splitlines()

    assert lines(EffectivityFailureCertificate(None, None, rationally_infeasible=True)) == [
        "no lifting exists",
        "obstruction: effectivity constraints are infeasible even over the rationals",
        f"scope: {lifting.SCOPE_NOTE}",
    ]
    negative = EffectivityFailureCertificate((0, 2, 1), 1, rationally_infeasible=False)
    assert lines(negative)[1] == (
        "obstruction: pullback of effective generator [0, 2, 1] acquires a "
        "negative coefficient at source ray 1"
    )


class TestSupportFailure:
    """The support branch of stage (c): a four-ray cone in rank 3 whose face
    {v0, v1} holds (v0 + v1) / 2 = (-1, 2, 1), a point outside Z v0 + Z v1.
    The support equations force phi_2 = phi_3 = 0, and then no integral
    phi_0, phi_1 carry the image."""

    @pytest.fixture
    def f(self, line):
        cone = mk(3, [(-2, 2, 1), (0, 2, 1), (2, -3, 3), (3, 1, 2)], [(0, 1, 2, 3)])
        return validate_toric_morphism(line, cone, IntMatrix([(-1,), (2,), (1,)]))

    def test_cox_target_fails_on_support_equations(self, f, line):
        assert f.ray_faces == ((0, 1),)
        target, source = cox_subgroup(f.target), cox_subgroup(line)
        report = solve_geometric_pullback(f, target, source)
        assert report.verdict == "no" and not f.target.is_simplicial
        assert report.obstruction == EffectivityFailureCertificate(
            generator=None, coefficient_index=None, rationally_infeasible=False
        )
        assert (
            "obstruction: support conditions force an inconsistent system of equations"
            in classify_liftings(report, 1).splitlines()
        )
        for entries in itertools.product(range(-3, 4), repeat=4):
            phi = IntMatrix([(x,) for x in entries], cols=1)
            assert verify_pullback_witness(f, target, source, phi, conditions=True), entries

    def test_kajiwara_target_lifts_uniquely(self, f, line):
        report = solve_geometric_pullback(
            f, kajiwara_subgroup(f.target), cox_subgroup(line)
        )
        assert report.verdict == "yes" and not f.target.is_simplicial
        assert report.uniqueness_note == "unique"
        assert report.phi.to_lists() == [[1], [1], [0]]


# -- the lifting solver: existence ------------------------------------------------


class TestLiftingExists:
    def test_blowup_of_plane_unique_lifting(self, blowup_origin, plane):
        f = validate_toric_morphism(blowup_origin, plane, IntMatrix.identity(2))
        report = solve_geometric_pullback(
            f, cox_subgroup(plane), cox_subgroup(blowup_origin)
        )
        assert report.verdict == "yes"
        assert report.exists is True
        assert report.uniqueness_note == "unique"
        assert report.phi.to_lists() == [[1, 0, 1], [0, 1, 1]]
        assert report.witness_classes == (report.phi,)
        # every row lies in the source subgroup: it is a member plus the
        # principal divisor of the zero character
        assert all(cox_subgroup(blowup_origin).contains(row) for row in report.phi)
        assert f.target.is_simplicial  # smooth target: the conditions are skipped
        text = classify_liftings(report, 2)
        assert "lifting exists" in text
        # one class: no class list
        assert "distinct witness classes" not in text
        assert (
            "basis divisor 0: maps to monomial with divisor exponent [1, 0, 1] = "
            "member [1, 0, 1] + principal of character [0, 0]"
        ) in text.splitlines()

    def test_agrees_with_strict_transform(self, blowup_origin, plane):
        f = validate_toric_morphism(blowup_origin, plane, IntMatrix.identity(2))
        report = solve_geometric_pullback(
            f, cox_subgroup(plane), cox_subgroup(blowup_origin)
        )
        basis = cox_subgroup(plane).basis
        for j, b in enumerate(basis):
            assert oracles.strict_transform(f, b) == report.phi.row(j)

    def test_identity_lifts_identically(self, quadric):
        f = validate_toric_morphism(quadric, quadric, IntMatrix.identity(2))
        report = solve_geometric_pullback(
            f, cox_subgroup(quadric), cox_subgroup(quadric)
        )
        assert report.verdict == "yes"
        assert report.phi == IntMatrix.identity(2)
        assert report.uniqueness_note == "unique"
        hom = report.induced_grading_hom
        assert str(hom.domain) == "Z/2"
        assert str(hom.codomain) == "Z/2"
        assert hom.matrix.to_lists() == [[1]]

    def test_one_witness_class_within_the_bound(self):
        # a free direction survives the linear stages, and the box search
        # finds exactly one point
        source = mk(2, [(0, -1), (2, -5)], [(0, 1)])
        target = mk(3, [(-2, 1, -1), (-1, 1, 0), (1, 1, 0), (2, 1, 1)], [(0, 1, 2, 3)])
        f = validate_toric_morphism(source, target, IntMatrix([(1, -1), (1, -1), (2, 0)]))
        t_sub, s_sub = cox_subgroup(target), kajiwara_subgroup(source)
        report = solve_geometric_pullback(f, t_sub, s_sub)
        assert report.verdict == "yes" and not f.target.is_simplicial
        assert report.uniqueness_note == "one witness class found within the search bound"
        assert report.witness_classes == (IntMatrix([(0, 0), (0, 2), (1, 1), (0, 4)]),)
        assert not verify_pullback_witness(f, t_sub, s_sub, report.phi, conditions=True)
        assert (
            "uniqueness: one witness class found within the search bound"
            in classify_liftings(report, 2).splitlines()
        )

    def test_two_witness_classes_on_the_diamond(self, line, diamond):
        # image (0, 1, 3), interior: solutions are phi = (t, 1-t, 2-t, t)
        # with 0 <= t <= 1, so exactly two classes
        f = validate_toric_morphism(line, diamond, IntMatrix([(0,), (1,), (3,)]))
        report = solve_geometric_pullback(
            f, cox_subgroup(diamond), cox_subgroup(line)
        )
        assert report.verdict == "yes"
        assert not f.target.is_simplicial
        found = {tuple(x for (x,) in m) for m in report.witness_classes}
        assert found == {(0, 1, 2, 0), (1, 0, 1, 1)}
        assert report.phi == report.witness_classes[0]
        assert "2 witness classes" in report.uniqueness_note
        lines = classify_liftings(report, 1).splitlines()
        at = lines.index(
            "distinct witness classes (pairwise non-equivalence of the induced "
            "liftings is not asserted):"
        )
        assert lines[at + 1:-1] == ["  " + str(m.to_lists()) for m in report.witness_classes]
        # the grading shadow collapses: the source has trivial grading
        hom = report.induced_grading_hom
        assert hom.codomain == FgAbGroup(0)

    def test_default_bound_reads_a_small_base_point(self, line, diamond):
        # image (0, 0, 2), the sum of two opposite rays of either diagonal:
        # solutions are phi = (t, 1-t, 1-t, t) with 0 <= t <= 1, and the base
        # point's entries are at most 1, so the default bound is 4 * 1
        f = validate_toric_morphism(line, diamond, IntMatrix([(0,), (0,), (2,)]))
        report = solve_geometric_pullback(f, cox_subgroup(diamond), cox_subgroup(line))
        assert report.verdict == "yes"
        assert report.uniqueness_note == "2 witness classes found within coefficient bound 4"
        found = {tuple(x for (x,) in m) for m in report.witness_classes}
        assert found == {(0, 1, 1, 0), (1, 0, 0, 1)}

    def test_support_conditions_pin_the_witness(self, line, diamond):
        # image (1, 1, 2) sits on the facet spanned by rays 2 and 3, so the
        # pullbacks of the first two coordinate divisors are forced to zero;
        # the residual system pins t = 1 and phi = (0, 0, 1, 1)
        f = validate_toric_morphism(line, diamond, IntMatrix([(1,), (1,), (2,)]))
        report = solve_geometric_pullback(
            f, cox_subgroup(diamond), cox_subgroup(line)
        )
        assert report.verdict == "yes"
        assert report.uniqueness_note == "unique"
        assert report.phi.to_lists() == [[0], [0], [1], [1]]

    def test_containment_and_support_solved_in_one_system(
        self, monkeypatch, line, diamond
    ):
        # a yes with support equations takes one integer solve: the
        # containment system without them is solved only after a failure
        f = validate_toric_morphism(line, diamond, IntMatrix([(1,), (1,), (2,)]))
        target, source = cox_subgroup(diamond), cox_subgroup(line)
        assert lifting._support_zero_cells(f, target)
        solve = lifting.solve_integer_linear
        calls = []
        monkeypatch.setattr(
            lifting, "solve_integer_linear", lambda A, b: calls.append(A) or solve(A, b)
        )
        report = solve_geometric_pullback(f, target, source)
        assert report.verdict == "yes" and not f.target.is_simplicial
        assert len(calls) == 1

    def test_witness_reverification_catches_tampering(self, line, diamond):
        f = validate_toric_morphism(line, diamond, IntMatrix([(0,), (1,), (3,)]))
        report = solve_geometric_pullback(
            f, cox_subgroup(diamond), cox_subgroup(line)
        )
        ok = verify_pullback_witness(
            f, cox_subgroup(diamond), cox_subgroup(line), report.phi,
            conditions=True,
        )
        assert ok == []
        bad = report.phi * 2
        problems = verify_pullback_witness(
            f, cox_subgroup(diamond), cox_subgroup(line), bad, conditions=True
        )
        assert problems

    def test_witness_reverification_checks_containment(self, quadric):
        # the identity lifts to the Cox presentations, but its rows are not
        # in the subgroup of principal divisors
        f = validate_toric_morphism(quadric, quadric, IntMatrix.identity(2))
        phi = solve_geometric_pullback(
            f, cox_subgroup(quadric), cox_subgroup(quadric)
        ).phi
        principal_only = divisor_subgroup(quadric, [(1, 1), (0, 2)])
        problems = verify_pullback_witness(
            f, cox_subgroup(quadric), principal_only, phi, conditions=False
        )
        assert problems == [
            "row 0 of phi is not in the source subgroup",
            "row 1 of phi is not in the source subgroup",
        ]

    def test_subgroup_fan_mismatch(self, quadric, plane):
        f = validate_toric_morphism(quadric, quadric, IntMatrix.identity(2))
        with pytest.raises(ValueError):
            solve_geometric_pullback(f, cox_subgroup(plane), cox_subgroup(quadric))
        with pytest.raises(ValueError):
            solve_geometric_pullback(f, cox_subgroup(quadric), cox_subgroup(plane))


# simplicial singular fans beside fangen's, whose one singular shape is the
# quadric cone: a deeper cone, two weighted projective planes and a rank-3 cone
_SINGULAR_SIMPLICIAL = [
    (2, [(1, 0), (1, 3)], [(0, 1)]),
    (2, [(-1, -2), (0, 1), (1, 0)], [(0, 1), (0, 2), (1, 2)]),
    (2, [(-2, -3), (0, 1), (1, 0)], [(0, 1), (0, 2), (1, 2)]),
    (3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)], [(0, 1, 2)]),
]


def test_simplicial_targets_lift_uniquely_and_meet_the_conditions():
    """On a simplicial target the forced Cartier values fix the lifting, and
    the effectivity and support conditions, which the solver skips there,
    hold for it: every yes is unique and passes the full re-check.  Its
    witness, read off the rational pullback, is the staged extension of the
    forced values and the local-character pullback of each basis divisor."""
    rng = random.Random(11)
    seen = dict.fromkeys(["yes", "no", "singular", "kajiwara", "padded"], 0)
    for _ in range(2000):
        source = fangen.random_fan(rng, torus_rank=rng.randint(0, 1))
        if rng.random() < 0.5:
            target = fangen.random_fan(rng, torus_rank=rng.randint(0, 1))
        else:
            rank, rays, cones = rng.choice(_SINGULAR_SIMPLICIAL)
            target = fangen.conjugate_fan(mk(rank, rays, cones), fangen.random_unimodular(rank, rng))
        if not target.is_simplicial:
            continue
        matrix = IntMatrix(
            [[rng.randint(-2, 2) for _ in range(source.rank)] for _ in range(target.rank)],
            cols=source.rank,
        )
        try:
            f = validate_toric_morphism(source, target, matrix)
        except MorphismValidationError:
            continue
        cox = cox_subgroup(target)
        # a multiple clearing every cone's invariant factors is Cartier
        m = lcm(*(s for snf in target.cone_snfs for s in snf.invariant_factors))
        for t_sub in (cox, kajiwara_subgroup(target)):
            for s_sub in (cox_subgroup(source), kajiwara_subgroup(source)):
                report = solve_geometric_pullback(f, t_sub, s_sub)
                if report.verdict == "no":
                    seen["no"] += 1
                    continue
                assert report.verdict == "yes" and f.target.is_simplicial
                assert report.uniqueness_note == "unique" and len(report.witness_classes) == 1
                assert not verify_pullback_witness(
                    f, t_sub, s_sub, report.phi, conditions=True
                ), (source, target, matrix, t_sub.basis, s_sub.basis)
                # phi is the staged extension of the forced values ...
                forced = [f.pull_back_cartier(c) for c in t_sub.cartier_members]
                ext, obs = lattice.extend_homomorphism(
                    IntMatrix(t_sub.cartier_coefficients, cols=len(t_sub.basis)),
                    IntMatrix(forced, cols=source.n_rays),
                )
                assert obs is None and not ext.kernel.cols and report.phi == ext.particular
                # ... and the pullback through local characters, which does
                # not read the pullback matrix, of a Cartier multiple of each
                # basis divisor
                for b, row in zip(t_sub.basis, report.phi):
                    chars = oracles.cartier_data(target, [m * x for x in b])
                    assert oracles.pullback_cartier(f, chars) == tuple(m * x for x in row)
                seen["yes"] += 1
                seen["singular"] += not target.is_smooth
                seen["kajiwara"] += t_sub.basis != cox.basis
                seen["padded"] += target.is_degenerate
    # 1,539 yes (1,007 on singular targets, 628 over a Kajiwara subgroup
    # other than Cox, 48 on padded targets) and 249 no at this seed
    assert seen["yes"] >= 1000 and seen["no"] >= 100, seen
    assert seen["singular"] >= 500 and seen["kajiwara"] >= 300 and seen["padded"] >= 30, seen


def test_simplicial_noes_are_the_staged_certificates():
    """A no on a simplicial target is read off phi when phi is integral, and
    certified by the extension stage otherwise.  Either way it is the
    certificate the stages give: the extension obstruction, or the rows that
    fail containment on their own (``_failing_rows``), never none."""
    rng = random.Random(12)
    seen = dict.fromkeys(["extension", "containment"], 0)
    def singular():
        rank, rays, cones = rng.choice(_SINGULAR_SIMPLICIAL)
        return fangen.conjugate_fan(mk(rank, rays, cones), fangen.random_unimodular(rank, rng))

    for _ in range(600):
        target = singular()
        if rng.random() < 0.3:
            # an identity with Kajiwara on the source side fails containment
            source, matrix = target, IntMatrix.identity(target.rank)
        else:
            source = singular() if rng.random() < 0.5 else fangen.random_fan(rng)
            matrix = IntMatrix(
                [[rng.randint(-2, 2) for _ in range(source.rank)] for _ in range(target.rank)],
                cols=source.rank,
            )
        try:
            f = validate_toric_morphism(source, target, matrix)
        except MorphismValidationError:
            continue
        for t_sub in (cox_subgroup(target), kajiwara_subgroup(target)):
            for s_sub in (cox_subgroup(source), kajiwara_subgroup(source)):
                report = solve_geometric_pullback(f, t_sub, s_sub)
                if report.verdict == "yes":
                    continue
                forced = [f.pull_back_cartier(c) for c in t_sub.cartier_members]
                ext, obs = lattice.extend_homomorphism(
                    IntMatrix(t_sub.cartier_coefficients, cols=len(t_sub.basis)),
                    IntMatrix(forced, cols=source.n_rays),
                )
                if obs is not None:
                    assert lifting._rational_pullback(f, t_sub) is None
                    element = IntMatrix(t_sub.basis, cols=target.n_rays).left_apply(obs.element)
                    assert report.obstruction == ExtensionObstruction(
                        multiplier=obs.multiplier, element=element, required=obs.required
                    )
                    seen["extension"] += 1
                else:
                    assert not ext.kernel.cols
                    rows = lifting._failing_rows(ext, s_sub.basis)
                    assert rows and report.obstruction == ContainmentFailureCertificate(rows)
                    seen["containment"] += 1
    # 96 extension obstructions and 174 containment failures at this seed
    assert seen["extension"] >= 50 and seen["containment"] >= 100, seen


class TestRationalPullback:
    """The simplicial step: phi read off the rational Cartier pullback."""

    @pytest.fixture
    def hexagon(self):
        rays = fangen.smooth_polygon_rays(6)
        return mk(2, rays, [(i, (i + 1) % 6) for i in range(6)])

    def test_warm_yes_takes_no_extension_and_no_smith_form(
        self, monkeypatch, quadric, blowup_origin, plane, hexagon
    ):
        # a singular identity, a blow-down and a smooth identity, Cox on
        # both sides: once the objects are warm, a yes is one product, one
        # divisibility test and the re-verification
        cases = [
            (quadric, quadric, IntMatrix.identity(2)),
            (blowup_origin, plane, IntMatrix.identity(2)),
            (hexagon, hexagon, IntMatrix.identity(2)),
        ]
        warm = []
        for source, target, matrix in cases:
            f = validate_toric_morphism(source, target, matrix)
            t_sub, s_sub = cox_subgroup(target), cox_subgroup(source)
            report = solve_geometric_pullback(f, t_sub, s_sub)
            assert report.verdict == "yes" and target.is_simplicial
            warm.append((f, t_sub, s_sub, report))
        calls = []

        def counted(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("smith_normal_form", "extend_homomorphism"):
            for module in (lattice, fan_module, divisors, lifting):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for f, t_sub, s_sub, report in warm:
            assert solve_geometric_pullback(f, t_sub, s_sub) == report
        assert calls == []

    def test_a_failed_reverification_raises_on_both_paths(self, monkeypatch, hexagon, line, diamond):
        # the rational step on a simplicial target, the staged path on a
        # non-simplicial one, whose re-check includes the conditions: a
        # witness that fails it is never reported
        checked = []
        monkeypatch.setattr(
            lifting, "verify_pullback_witness",
            lambda *a, conditions: checked.append(conditions) or ["patched"],
        )
        for source, target, matrix in [
            (hexagon, hexagon, IntMatrix.identity(2)),
            (line, diamond, IntMatrix([(0,), (1,), (3,)])),
        ]:
            f = validate_toric_morphism(source, target, matrix)
            with pytest.raises(AssertionError, match=r"failed re-verification: \['patched'\]"):
                solve_geometric_pullback(f, cox_subgroup(target), cox_subgroup(source))
        assert checked == [False, True]

    def test_the_reverification_holds_under_python_O(self):
        script = (
            "from toriclift import lifting\n"
            "from toriclift.divisors import cox_subgroup\n"
            "from toriclift.fan import validate_fan\n"
            "from toriclift.lattice import IntMatrix\n"
            "lifting.verify_pullback_witness = lambda *a, **k: ['patched']\n"
            "rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]\n"
            "hexagon = validate_fan(2, rays, [(i, (i + 1) % 6) for i in range(6)])\n"
            "f = lifting.validate_toric_morphism(hexagon, hexagon, IntMatrix.identity(2))\n"
            "try:\n"
            "    print(lifting.solve_geometric_pullback(f, cox_subgroup(hexagon), cox_subgroup(hexagon)))\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
        )
        src = str(Path(lifting.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert done.stdout == "witness failed re-verification: ['patched']\n", done.stderr

    def test_a_staged_yes_on_a_simplicial_target_is_a_contradiction(self, monkeypatch, quadric):
        # the rational pullback is the only extension there: if it fails
        # while the extension and containment stages pass, the engine is wrong
        monkeypatch.setattr(lifting, "_rational_pullback", lambda f, sub: None)
        f = validate_toric_morphism(quadric, quadric, IntMatrix.identity(2))
        with pytest.raises(AssertionError, match="rational pullback failed them"):
            solve_geometric_pullback(f, cox_subgroup(quadric), cox_subgroup(quadric))

    def test_the_grading_map_refuses_a_row_outside_the_source_subgroup(self, quadric):
        f = validate_toric_morphism(quadric, quadric, IntMatrix.identity(2))
        principal_only = divisor_subgroup(quadric, [(1, 1), (0, 2)])
        with pytest.raises(AssertionError, match="outside the source subgroup"):
            lifting.induced_grading_hom(
                f, cox_subgroup(quadric), principal_only, IntMatrix.identity(2)
            )


class TestUndecided:
    def test_zero_bound_reports_undecided(self, line, diamond):
        # image (1, 0, 3): solutions are phi = (t-1, 2-t, 2-t, t) with
        # t in {1, 2}; the base point of the linear solve is not one of
        # them, so a zero search bound must refuse to answer
        f = validate_toric_morphism(line, diamond, IntMatrix([(1,), (0,), (3,)]))
        report = solve_geometric_pullback(
            f, cox_subgroup(diamond), cox_subgroup(line), search_bound=0
        )
        assert report.verdict == "undecided"
        assert report.exists is None
        assert report.phi is None
        assert "undecided" in classify_liftings(report, 1)
        assert report.uniqueness_note == (
            "no integral solution within coefficient bound 0; "
            "the rational relaxation is feasible"
        )

    def test_default_bound_decides_the_same_instance(self, line, diamond):
        f = validate_toric_morphism(line, diamond, IntMatrix([(1,), (0,), (3,)]))
        report = solve_geometric_pullback(
            f, cox_subgroup(diamond), cox_subgroup(line)
        )
        assert report.verdict == "yes"
        found = {tuple(x for (x,) in m) for m in report.witness_classes}
        assert found == {(0, 1, 1, 1), (1, 0, 0, 2)}

    def test_negative_bound_is_rejected(self, line, diamond):
        # a negative bound is an empty box: nothing would be searched
        f = validate_toric_morphism(line, diamond, IntMatrix([(1,), (0,), (3,)]))
        with pytest.raises(ValueError, match="non-negative"):
            solve_geometric_pullback(
                f, cox_subgroup(diamond), cox_subgroup(line), search_bound=-1
            )


# -- the effectivity chain against rational elimination and the full box -------


# (ineqs, rhs, dim, bound) of a . tau >= b over tau in [-bound, bound]^dim
FIXED_SYSTEMS = [
    # t >= 1 and -t >= 0 cannot both hold
    ([(1,), (-1,)], [1, 0], 1, 5),
    # 2t >= 1 and -2t >= -1 force t = 1/2: no integer point
    ([(2,), (-2,)], [1, -1], 1, 5),
    # s + t >= 2, -s >= -1, -t >= -1 force s = t = 1
    ([(1, 1), (-1, 0), (0, -1)], [2, -1, -1], 2, 3),
    # over no coordinate, the empty system holds at the empty point
    ([], [], 0, 0),
]


def _chain_answer(ineqs, rhs, dim, bound):
    """The string "infeasible" when the chain certifies rational
    infeasibility, else the integer points the search lists."""
    chain = _projections(list(zip(ineqs, rhs)), dim)
    if any(b > 0 for _, b in chain[0]):
        return "infeasible"
    return _effective_points(chain, bound)


class TestFeasibilityHelpers:
    # each case is also a fixed input of the property test below

    def test_rational_infeasible(self):
        assert _chain_answer(*FIXED_SYSTEMS[0]) == "infeasible"

    def test_rational_feasible_fractional_only(self):
        assert _chain_answer(*FIXED_SYSTEMS[1]) == []

    def test_two_variable_elimination(self):
        assert _chain_answer(*FIXED_SYSTEMS[2]) == [(1, 1)]

    def test_empty_system_is_feasible(self):
        assert _chain_answer(*FIXED_SYSTEMS[3]) == [()]


def _random_system(rng):
    dim = rng.randint(0, 3)
    n_rows = rng.randint(0, 6)
    ineqs = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n_rows)]
    rhs = [rng.randint(-4, 4) for _ in range(n_rows)]
    return ineqs, rhs, dim, rng.randint(0, 6)


def test_chain_matches_rational_elimination_and_box_search():
    rng = random.Random(20261018)
    systems = FIXED_SYSTEMS + [_random_system(rng) for _ in range(1000)]
    seen = {"infeasible": 0, "no point": 0, "points": 0, "truncated": 0}
    for ineqs, rhs, dim, bound in systems:
        chain = _projections(list(zip(ineqs, rhs)), dim)
        assert [len(a) for entry in chain for a, _ in entry] == [
            k for k, entry in enumerate(chain) for _ in entry
        ]
        answer = _chain_answer(ineqs, rhs, dim, bound)
        assert (answer == "infeasible") == (not oracles.rational_feasible(ineqs, rhs))
        if answer == "infeasible":
            seen["infeasible"] += 1
            continue
        assert answer == (oracles.box_search(ineqs, rhs, dim, bound) or []), (ineqs, rhs)
        seen["points" if answer else "no point"] += 1
        seen["truncated"] += len(answer) == MAX_WITNESS_CLASSES
    assert min(seen.values()) >= 20, seen


def test_search_counts_nodes_not_box_volume(monkeypatch):
    # 0 <= s <= 1 and 0 <= t <= 1 at bound 10**9: the projections leave
    # two values of s and two of t for each, six nodes in all
    chain = _projections(list(zip([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -1, 0, -1])), 2)
    monkeypatch.setattr(lifting, "MAX_SEARCH_POINTS", 6)
    assert _effective_points(chain, 10**9) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    monkeypatch.setattr(lifting, "MAX_SEARCH_POINTS", 5)
    with pytest.raises(ResourceLimitError, match="visited 6 nodes, over guard 5"):
        _effective_points(chain, 10**9)


# -- containment stage against the cokernel routine and the dense reference ------


def _random_extension_instance(rng):
    """Cartier coordinates B over k basis divisors, some rank-deficient, with
    forced values B @ X0 for a random X0, so an extension exists; a lattice
    in Z^n whose quotient often has torsion; and support cells."""
    n = rng.randint(1, 4)
    k = rng.randint(1, 3)
    B = IntMatrix(
        [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(k)] for _ in range(rng.randint(0, k + 1))],
        cols=k,
    )
    X0 = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)], cols=n)
    ext, obs = lattice.extend_homomorphism(B, B @ X0)
    assert obs is None
    shape = rng.random()
    if shape < 0.1:
        lattice_rows = hermite_row_basis([], width=n)
    elif shape < 0.25:
        lattice_rows = IntMatrix.identity(n).row_list()
    else:
        # small entries: the quotient often has torsion
        lattice_rows = hermite_row_basis(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n + 1))],
            width=n,
        )
    zero_cells = [
        (tuple(rng.randint(-1, 2) for _ in range(k)), rng.randrange(n))
        for _ in range(rng.choice((0, 0, 1, 2)))
    ]
    return B, ext, lattice_rows, zero_cells


def _one_hot_kernels(N, n):
    """The extensions X + N @ T as X + sum_a t_a K_a, one k x n matrix K_a
    per entry T[i, c] (row by row): column i of N placed in column c."""
    return [
        IntMatrix([[N[j, i] if col == c else 0 for col in range(n)] for j in range(N.rows)], cols=n)
        for i in range(N.cols)
        for c in range(n)
    ]


def test_containment_stage_matches_cokernel_routine_and_dense_system():
    rng = random.Random(2024)
    seen = {
        "feasible": 0, "containment fails": 0, "support fails": 0, "joint": 0,
        "torsion": 0, "identity": 0, "rank-deficient": 0, "gcd above 1": 0,
    }
    for _ in range(600):
        B, ext, lattice_rows, zero_cells = _random_extension_instance(rng)
        X, N = ext.particular, ext.kernel
        k, n = X.rows, X.cols

        def in_lattice(v):
            return hermite_coefficients(lattice_rows, v) is not None

        # row i of fixed is every extension's value on (U @ B)_i / s_i
        snf = lattice.smith_normal_form(B)
        T = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(N.cols)], cols=n)
        phi = X + N @ T
        assert ext.fixed.rows == snf.rank
        for i, s in enumerate(snf.invariant_factors):
            u = B.left_apply(snf.U.row(i))
            assert all(x % s == 0 for x in u)
            assert phi.left_apply([x // s for x in u]) == ext.fixed.row(i) == X.left_apply([x // s for x in u])

        kernels = _one_hot_kernels(N, n)
        old = oracles._ProjectedContainment(X, N, lattice_rows)
        if any(old.blocks):
            # each coefficient is the class of the one-hot kernel row, with
            # torsion coordinates reduced as project reduces them
            coker = CokernelData(
                IntMatrix([[r[i] for r in lattice_rows] for i in range(n)], cols=len(lattice_rows))
            )
            for j, block in enumerate(old.blocks):
                classes = [coker.project(K.row(j)) for K in kernels]
                assert [c for c, _ in block] == [tuple(p[g] for p in classes) for g in range(len(block))]
        want = oracles.containment_dense(X, kernels, lattice_rows, zero_cells, k, n)
        contained = all(in_lattice(y) for y in ext.fixed)
        got = lifting._support_solution(ext, lattice_rows, zero_cells) if contained else None
        assert (got is None) == (want is None) == (old.solve(zero_cells) is None), (B, X, lattice_rows, zero_cells)

        failing = tuple(
            j
            for j in range(k)
            if oracles.containment_dense(
                IntMatrix([X.row(j)], cols=n),
                [IntMatrix([K.row(j)], cols=n) for K in kernels],
                lattice_rows, [], 1, n,
            )
            is None
        )
        assert lifting._failing_rows(ext, lattice_rows) == old.failing_rows() == failing
        # containment fails iff some fixed row leaves the lattice
        assert contained == (old.solve([]) is not None)

        seen["torsion"] += bool(old.torsion)
        seen["rank-deficient"] += bool(N.cols)
        seen["gcd above 1"] += any(gcd(*row) > 1 for row in N)
        identity = len(lattice_rows) == n and all(r[i] == 1 for i, r in enumerate(lattice_rows))
        seen["identity"] += identity
        if not contained:
            seen["containment fails"] += 1
            seen["joint"] += not failing and not identity and any(gcd(*row) == 1 for row in N)
            continue
        if got is None:
            seen["support fails"] += 1
            continue
        seen["feasible"] += 1
        t, dirs = got
        assert dirs == want[1] == old.solve(zero_cells)[1]
        if identity:
            # the same system as the cokernel routine, so the same particular t
            assert t == old.solve(zero_cells)[0]
        phi = X + lifting._shift(N, t, n)
        assert phi == sum((K * c for c, K in zip(t, kernels)), X)
        assert all(in_lattice(row) for row in phi)
        for coeffs, ray_i in zero_cells:
            assert sum(c * phi[j, ray_i] for j, c in enumerate(coeffs)) == 0
        for d in dirs:
            shifted = lifting._shift(N, d, n)
            assert all(in_lattice(row) for row in shifted)
            for coeffs, ray_i in zero_cells:
                assert sum(c * shifted[j, ray_i] for j, c in enumerate(coeffs)) == 0
    # 302 feasible, 241 containment and 57 support failures, 23 joint
    # failures, 220 torsion cokernels and 334 rank-deficient B at this seed
    assert all(count >= 20 for count in seen.values()), seen
