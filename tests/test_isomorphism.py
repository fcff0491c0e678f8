"""Tests for fan isomorphism and torus-factor cancellation."""

import os
import subprocess
import sys
from collections import defaultdict
from math import perm
from pathlib import Path
from random import Random

import pytest

import fangen
import oracles
from toriclift import isomorphism
from toriclift.fan import validate_fan
from toriclift.isomorphism import (
    FanIso,
    _prefilter_reject,
    IsoReport,
    fan_isomorphic,
    toric_isomorphism,
    verify_fan_iso,
)
from toriclift.divisors import cox_subgroup, kajiwara_subgroup
from toriclift.lattice import (
    IntMatrix, ResourceLimitError, determinant, scaled_inverse, smith_normal_form,
)
from toriclift.lifting import solve_geometric_pullback, validate_toric_morphism


def mk(rank, rays, cones):
    return validate_fan(rank, rays, cones)


@pytest.fixture
def p2():
    return mk(2, [(-1, -1), (0, 1), (1, 0)], [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def hirzebruch():
    return mk(
        2,
        [(-1, 1), (0, -1), (0, 1), (1, 0)],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
    )


@pytest.fixture
def quadric():
    return mk(2, [(1, 0), (1, 2)], [(0, 1)])


@pytest.fixture
def plane():
    return mk(2, [(0, 1), (1, 0)], [(0, 1)])


def _hirzebruch_times_lines(a, k):
    """The Hirzebruch surface F_a times k projective lines."""
    surface = mk(2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])
    line = mk(1, [(1,), (-1,)], [(0,), (1,)])
    return fangen.product_fan(surface, *[line] * k)


def _random_product(rng):
    """A product of random fans of total rank 1 to 5, conjugated."""
    rank = rng.randint(1, 5)
    factors = []
    while rank:
        factors.append(fangen.random_fan(rng, max_rank=min(rank, 3)))
        rank -= factors[-1].rank
    fan = fangen.product_fan(*factors)
    return fangen.conjugate_fan(fan, fangen.random_unimodular(fan.rank, rng))


def _same_count_pairs(fans):
    """Pairs of the fans with equal rank, ray count and max-cone count: each
    fan with the next and the one after among those alike."""
    alike = defaultdict(list)
    for f in fans:
        alike[f.rank, f.n_rays, len(f.max_cones)].append(f)
    return [p for g in alike.values() for step in (1, 2) for p in zip(g, g[step:])]


def test_adjugate_matches_cofactors():
    rng = Random(2000)
    sizes = []
    for _ in range(1000):
        n = rng.randint(1, 6)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], cols=n)
        det = determinant(m)
        if det:
            assert scaled_inverse(m, det) == oracles.adjugate_by_cofactors(m), m
            sizes.append(n)
    assert len(sizes) >= 900 and set(sizes) == set(range(1, 7))


class TestFanIsomorphic:
    def test_conjugated_projective_plane(self, p2):
        u = IntMatrix([(1, 1), (0, 1)])
        other = fangen.conjugate_fan(p2, u)
        iso = fan_isomorphic(p2, other)
        assert iso is not None
        assert verify_fan_iso(p2, other, iso) == []

    def test_ray_count_mismatch(self, p2, hirzebruch):
        assert fan_isomorphic(p2, hirzebruch) is None

    def test_singular_vs_smooth_cone(self, quadric, plane):
        assert fan_isomorphic(quadric, plane) is None

    def test_search_decides_when_prefilters_pass(self):
        # same rank, ray count and max-cone sizes, so only the search can
        # tell them apart: one ray set contains an opposite pair and the
        # other does not, and a unimodular map preserves opposite pairs
        a = mk(2, [(-1, -1), (0, 1), (1, 0)], [(0,), (1,), (2,)])
        b = mk(2, [(-1, 0), (0, 1), (1, 0)], [(0,), (1,), (2,)])
        assert _prefilter_reject(a, b) is None
        assert fan_isomorphic(a, b) is None

    def test_self_isomorphism_is_identity(self, quadric):
        iso = fan_isomorphic(quadric, quadric)
        assert iso.matrix == IntMatrix.identity(2)
        assert iso.ray_bijection == (0, 1)
        assert iso.cone_bijection == (0,)

    def test_degenerate_input_rejected(self):
        deg = mk(2, [(1, 0)], [(0,)])
        with pytest.raises(ValueError):
            fan_isomorphic(deg, deg)

    def test_one_degenerate_input_rejected_in_either_order(self, p2):
        deg = mk(2, [(1, 0)], [(0,)])
        for a, b in ((deg, p2), (p2, deg)):
            with pytest.raises(ValueError, match="requires non-degenerate fans"):
                fan_isomorphic(a, b)

    def test_verifier_checks_the_cone_map_when_the_ray_map_is_right(self, p2):
        iso = fan_isomorphic(p2, p2)
        rotated = FanIso(
            matrix=iso.matrix,
            ray_bijection=iso.ray_bijection,
            cone_bijection=iso.cone_bijection[1:] + iso.cone_bijection[:1],
        )
        assert verify_fan_iso(p2, p2, rotated) == [
            f"max cone {c} does not map to its assigned cone" for c in range(3)
        ]

    def test_verifier_checks_that_both_maps_are_bijections(self, p2):
        iso = fan_isomorphic(p2, p2)
        repeated = FanIso(
            matrix=iso.matrix,
            ray_bijection=(0, 0, 1),
            cone_bijection=iso.cone_bijection,
        )
        assert verify_fan_iso(p2, p2, repeated) == ["ray map is not a bijection"]
        short = FanIso(
            matrix=iso.matrix,
            ray_bijection=iso.ray_bijection,
            cone_bijection=iso.cone_bijection[:2],
        )
        assert verify_fan_iso(p2, p2, short) == ["cone map is not a bijection"]

    def test_a_failed_verification_raises(self, p2, monkeypatch):
        # a found isomorphism certifies the second fan: one that fails its
        # verification is never returned
        monkeypatch.setattr(isomorphism, "verify_fan_iso", lambda a, b, iso: ["patched"])
        with pytest.raises(AssertionError, match="fails its verification: patched"):
            fan_isomorphic(p2, p2)

    def test_the_verification_holds_under_python_O(self):
        script = (
            "from toriclift import isomorphism\n"
            "from toriclift.fan import validate_fan\n"
            "isomorphism.verify_fan_iso = lambda a, b, iso: ['patched']\n"
            "p2 = validate_fan(2, [(-1, -1), (0, 1), (1, 0)], [(0, 1), (0, 2), (1, 2)])\n"
            "try:\n"
            "    print(isomorphism.fan_isomorphic(p2, p2))\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
        )
        src = str(Path(isomorphism.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert done.stdout == "found isomorphism fails its verification: patched\n", done.stderr

    def test_verifier_catches_tampering(self, p2):
        iso = fan_isomorphic(p2, p2)
        bad = FanIso(
            matrix=iso.matrix * 2,
            ray_bijection=iso.ray_bijection,
            cone_bijection=iso.cone_bijection,
        )
        assert verify_fan_iso(p2, p2, bad)

    def test_symmetry_and_mutual_inverse(self, p2):
        u = IntMatrix([(2, 1), (1, 1)])
        assert abs(determinant(u)) == 1
        other = fangen.conjugate_fan(p2, u)
        ab = fan_isomorphic(p2, other)
        ba = fan_isomorphic(other, p2)
        assert ab is not None and ba is not None
        composite = ba.matrix @ ab.matrix  # maps p2's lattice to itself
        assert abs(determinant(composite)) == 1
        # the composite is a fan automorphism: it permutes the rays
        images = {composite.apply(r) for r in p2.rays}
        assert images == set(p2.rays)

    def test_resource_guard(self):
        # 14 rays in rank 6: 14!/8! ordered base assignments, but the ray
        # images prune all but the identity path
        rays = []
        for i in range(6):
            e = [0] * 6
            e[i] = 1
            rays.append(tuple(e))
            rays.append(tuple(-x for x in e))
        rays.append((1, 1, 1, 1, 1, 1))
        rays.append((1, 2, 3, 4, 5, 6))
        fan = mk(6, rays, [(i,) for i in range(14)])
        iso = fan_isomorphic(fan, fan)
        assert iso.matrix == IntMatrix.identity(6)
        assert iso.ray_bijection == tuple(range(14))

    def test_guard_counts_assignments_tried(self, monkeypatch):
        # F2 x (P^1)^3 against F4 x (P^1)^3: 30,240 ordered base assignments,
        # of which the search tries 100 before answering no
        a, b = (_hirzebruch_times_lines(h, 3) for h in (2, 4))
        monkeypatch.setattr(isomorphism, "MAX_ISO_ASSIGNMENTS", 50)
        with pytest.raises(ResourceLimitError, match="tried 51 ray assignments"):
            fan_isomorphic(a, b)
        monkeypatch.setattr(isomorphism, "MAX_ISO_ASSIGNMENTS", 200)
        assert fan_isomorphic(a, b) is None


def test_search_matches_the_permutation_oracle():
    """The depth-first search returns the same FanIso, or None, as trying
    every ordered base assignment: on conjugate pairs, on pairs of fans with
    the same rank, ray count and max-cone count, and on Hirzebruch products
    that pass every prefilter without being isomorphic.  The oracle tries up
    to n!/(n - rank)! assignments, so fans above the 1,680 of an 8-ray
    rank-4 fan are left out."""
    rng = Random(1505)
    fans = []
    while len(fans) < 720:
        fan = _random_product(rng)
        if not fan.is_degenerate and perm(fan.n_rays, fan.rank) <= 1680:
            fans.append(fan)
    pairs = [(f, fangen.conjugate_fan(f, fangen.random_unimodular(f.rank, rng))) for f in fans]
    alike_pairs = _same_count_pairs(fans)
    for k in (1, 2):
        a, b = (_hirzebruch_times_lines(h, k) for h in (2, 4))
        alike_pairs += [(a, b), (b, a)]
    searched_no = 0
    for a, b in pairs + alike_pairs:
        iso = fan_isomorphic(a, b)
        assert iso == oracles.fan_isomorphic_by_permutations(a, b), (a, b)
        searched_no += iso is None and _prefilter_reject(a, b) is None
    # 2,063 pairs; 425 are no-pairs that pass every prefilter
    assert len(pairs) + len(alike_pairs) >= 2000 and searched_no >= 100, searched_no


def test_search_cost_of_same_count_pairs(monkeypatch):
    """The search settles every same-count pair of the oracle test's draw,
    uncapped, far below ``MAX_ISO_ASSIGNMENTS``: at most 2,128 assignments
    (a rank-5 fan with 8 rays) over 1,307 pairs, with no invariant beyond
    the counts to reject them first."""
    rng = Random(1505)
    fans = []
    while len(fans) < 720:
        fan = _random_product(rng)
        if not fan.is_degenerate:
            fans.append(fan)
    pairs = _same_count_pairs(fans)
    assert len(pairs) == 1307
    monkeypatch.setattr(isomorphism, "MAX_ISO_ASSIGNMENTS", 5000)
    for a, b in pairs:
        fan_isomorphic(a, b)


class TestToricIsomorphism:
    def test_fan_vs_itself(self, hirzebruch):
        report = toric_isomorphism(hirzebruch, hirzebruch)
        assert isinstance(report, IsoReport)
        assert report.isomorphic
        assert report.torus_ranks == (0, 0)
        assert report.iso.matrix == IntMatrix.identity(2)

    def test_quadric_with_torus_factor_vs_conjugate(self, quadric):
        padded = mk(3, [(1, 0, 0), (1, 2, 0)], [(0, 1)])
        g = IntMatrix([(0, 1, 0), (0, 0, 1), (1, 0, 0)])
        other = fangen.conjugate_fan(padded, g)
        report = toric_isomorphism(padded, other)
        assert report.isomorphic
        assert report.torus_ranks == (1, 1)
        assert (
            verify_fan_iso(
                report.splits[0].reduced_fan,
                report.splits[1].reduced_fan,
                report.iso,
            )
            == []
        )

    def test_torus_rank_mismatch(self, p2):
        padded = mk(
            3,
            [(-1, -1, 0), (0, 1, 0), (1, 0, 0)],
            [(0, 1), (0, 2), (1, 2)],
        )
        report = toric_isomorphism(padded, p2)
        assert not report.isomorphic
        assert "torus factor ranks differ" in report.reason
        assert report.torus_ranks == (1, 0)

    def test_reduced_fans_differ(self, quadric, plane):
        report = toric_isomorphism(quadric, plane)
        assert not report.isomorphic
        assert report.reason == "reduced fans are not isomorphic"

    def test_pure_torus_fans(self):
        a = mk(2, [], [])
        b = mk(2, [], [])
        report = toric_isomorphism(a, b)
        assert report.isomorphic
        assert report.torus_ranks == (2, 2)


class TestRandomRoundTrips:
    def test_conjugate_round_trips(self):
        rng = Random(20240816)
        for trial in range(40):
            torus = rng.choice([0, 0, 1])
            fan = fangen.random_fan(rng, max_rank=3, torus_rank=torus)
            u = fangen.random_unimodular(fan.rank, rng)
            other = fangen.conjugate_fan(fan, u)
            report = toric_isomorphism(fan, other)
            assert report.isomorphic, (trial, fan, u)
            if report.iso is not None:
                assert (
                    verify_fan_iso(
                        report.splits[0].reduced_fan,
                        report.splits[1].reduced_fan,
                        report.iso,
                    )
                    == []
                )

    def test_symmetry_on_random_pairs(self):
        rng = Random(7)
        for _ in range(15):
            a = fangen.random_fan(rng, max_rank=2)
            b = fangen.random_fan(rng, max_rank=2)
            assert (
                toric_isomorphism(a, b).isomorphic
                == toric_isomorphism(b, a).isomorphic
            )


def _unique_lift(source, target, matrix, subgroup):
    f = validate_toric_morphism(source, target, matrix)
    report = solve_geometric_pullback(f, subgroup(target), subgroup(source))
    assert (report.verdict, report.uniqueness_note) == ("yes", "unique"), (
        source, target, matrix, subgroup.__name__,
    )
    return report


def _assert_lifts_uniquely(a, b, iso):
    # U @ L @ V = 1, so L^-1 = V @ U
    snf = smith_normal_form(iso.matrix)
    assert snf.S == IntMatrix.identity(a.rank)
    inverse = snf.V @ snf.U
    # under Cox subgroups phi is the ray permutation: row j pulls the
    # divisor of ray j back to the divisor of the source ray mapped onto it
    permutation = IntMatrix(
        [[int(iso.ray_bijection[i] == j) for i in range(a.n_rays)] for j in range(b.n_rays)],
        cols=a.n_rays,
    )
    for subgroup in (cox_subgroup, kajiwara_subgroup):
        there = _unique_lift(a, b, iso.matrix, subgroup)
        back = _unique_lift(b, a, inverse, subgroup)
        if subgroup is cox_subgroup:
            assert there.phi == permutation, (a, b)
            assert back.phi == permutation.T, (a, b)
        round_trip = oracles.compose(there.induced_grading_hom, back.induced_grading_hom)
        group = round_trip.domain
        assert group == round_trip.codomain
        for i in range(group.n_generators):
            unit = tuple(int(i == j) for j in range(group.n_generators))
            assert group.reduce(round_trip.matrix.row(i)) == unit, (a, b, subgroup.__name__)


def test_isomorphisms_lift_to_the_presentations():
    """The paper's application: a fan isomorphism lifts, uniquely, to the Cox
    and to the Kajiwara presentations of both fans, and with the lift of its
    inverse it composes to the identity on the grading group.  Under Cox
    subgroups the lift is the isomorphism's ray permutation.  Fans with a
    torus factor are compared through the reduced fans of their splits."""
    rng = Random(2002)
    fans = 0
    while fans < 40:
        a = fangen.random_fan(rng, max_rank=3)
        if a.is_degenerate:
            continue
        fans += 1
        b = fangen.conjugate_fan(a, fangen.random_unimodular(a.rank, rng))
        iso = fan_isomorphic(a, b)
        assert iso is not None, (a, b)
        _assert_lifts_uniquely(a, b, iso)
    for trial in range(20):
        a = fangen.random_fan(rng, max_rank=3, torus_rank=1 + trial % 2)
        b = fangen.conjugate_fan(a, fangen.random_unimodular(a.rank, rng))
        report = toric_isomorphism(a, b)
        assert report.isomorphic and report.torus_ranks[0] >= 1 + trial % 2, (a, b)
        ra, rb = (split.reduced_fan for split in report.splits)
        _assert_lifts_uniquely(ra, rb, report.iso)
