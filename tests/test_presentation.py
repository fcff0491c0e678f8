import itertools
import random
from types import SimpleNamespace

import pytest

import fangen
import oracles
import toriclift.presentation as presentation
from toriclift.divisors import (
    cox_subgroup,
    divisor_subgroup,
    kajiwara_subgroup,
    principal_basis,
)
from toriclift.fan import DegenerateFanError, validate_fan
from toriclift.lattice import FgAbGroup, ResourceLimitError
from toriclift.presentation import exceptional_collections, presentation_from_subgroup


def projective_plane():
    return validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def quadric_cone():
    return validate_fan(2, [(1, 0), (1, 2)], [(0, 1)])


def hirzebruch_one():
    return validate_fan(
        2, [(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )


# -- Cox subgroup -------------------------------------------------------------


def test_cox_p2():
    pres = presentation_from_subgroup(cox_subgroup(projective_plane()))
    assert pres.coordinates == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert pres.grading_group == FgAbGroup(1, ())
    d = pres.degrees
    assert d[0] == d[1] == d[2]
    assert abs(d[0][0]) == 1
    assert pres.exceptional_collections == ((0, 1, 2),)
    assert all(len(c) > 1 for c in pres.exceptional_collections)
    assert pres.enough.ok


def test_cox_quadric():
    pres = presentation_from_subgroup(cox_subgroup(quadric_cone()))
    assert pres.coordinates == ((0, 1), (1, 0))
    assert pres.grading_group == FgAbGroup(0, (2,))
    assert pres.degrees == ((1,), (1,))
    assert pres.exceptional_collections == ()
    assert pres.enough.ok


def test_cox_hirzebruch_collections():
    fan = hirzebruch_one()
    assert fan.rays == ((-1, 1), (0, -1), (0, 1), (1, 0))
    pres = presentation_from_subgroup(cox_subgroup(fan))
    assert pres.grading_group == FgAbGroup(2, ())
    # coordinates are lex-sorted unit divisors; map each back to its ray
    ray_of = [w.index(1) for w in pres.coordinates]
    coord_of_ray = {r: i for i, r in enumerate(ray_of)}
    pairs = sorted(
        tuple(sorted(coord_of_ray[r] for r in c))
        for c in [(0, 3), (1, 2)]
    )
    assert sorted(pres.exceptional_collections) == pairs
    # principal relations force degree identities: ray pairing rows vanish
    for j in range(2):
        total = [0, 0]
        for i, ray in enumerate(fan.rays):
            for k in range(2):
                total[k] += ray[j] * pres.degrees[coord_of_ray[i]][k]
        assert total == [0, 0]


# -- Kajiwara subgroup -----------------------------------------------------------


def test_kajiwara_quadric():
    pres = presentation_from_subgroup(kajiwara_subgroup(quadric_cone()))
    assert pres.coordinates == ((0, 2), (1, 1), (2, 0))
    assert pres.grading_group == FgAbGroup(0)
    assert pres.degrees == ((), (), ())
    assert pres.exceptional_collections == ()
    assert pres.enough.ok


def singular_polygon(n):
    """A complete polygon fan with n rays and two singular cones: a smooth
    polygon with n + 2 rays, less two rays."""
    cycle = fangen.smooth_polygon_rays(n + 2)
    rays = [r for i, r in enumerate(cycle) if i not in (1, len(cycle) // 2)]
    return validate_fan(2, rays, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("n, n_coordinates", [(18, 22), (62, 64)])
def test_kajiwara_singular_polygon_past_16_rays(n, n_coordinates):
    pres = presentation_from_subgroup(kajiwara_subgroup(singular_polygon(n)))
    coords = pres.coordinates
    assert len(coords) == n_coordinates
    assert pres.grading_group == FgAbGroup(n - 2)
    assert all(pres.subgroup.contains(c) and min(c) >= 0 for c in coords)
    # no coordinate lies below another, which would make it a sum of two
    assert not any(p != q and all(a <= b for a, b in zip(p, q)) for p in coords for q in coords)


def test_kajiwara_smooth_equals_cox():
    fan = projective_plane()
    a = presentation_from_subgroup(cox_subgroup(fan))
    b = presentation_from_subgroup(kajiwara_subgroup(fan))
    assert a.subgroup == b.subgroup
    assert a.coordinates == b.coordinates
    assert a.degrees == b.degrees


# -- custom subgroups -------------------------------------------------------------


def test_custom_principal_subgroup():
    fan = quadric_cone()
    pres = presentation_from_subgroup(divisor_subgroup(fan, principal_basis(fan)))
    assert pres.grading_group == FgAbGroup(0)
    assert pres.coordinates == ((0, 2), (1, 1), (2, 0))


def test_degenerate_fan_rejected():
    fan = validate_fan(3, [(1, 0, 0), (0, 1, 0)], [(0, 1)])
    for subgroup in (cox_subgroup, kajiwara_subgroup):
        with pytest.raises(DegenerateFanError, match="fan rays do not span the lattice"):
            presentation_from_subgroup(subgroup(fan))


def test_point_fan_presentation():
    pres = presentation_from_subgroup(cox_subgroup(validate_fan(0, [], [])))
    assert pres.coordinates == ()
    assert pres.grading_group == FgAbGroup(0)
    assert pres.exceptional_collections == ()


# -- exceptional collections -------------------------------------------------------


def test_exceptional_collections_direct():
    fan = projective_plane()
    # unit coordinate divisors: the only minimal collection is all three
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert exceptional_collections(fan, units) == ((0, 1, 2),)
    # a divisor supported everywhere can never help
    assert exceptional_collections(fan, [(1, 1, 1)]) == ()
    # affine fan: no collections at all
    assert exceptional_collections(quadric_cone(), [(1, 0), (0, 1)]) == ()


def test_exceptional_supports_meet_inside_the_variety():
    fan = projective_plane()
    # ray-set supports {0} and {1,2} are disjoint as index sets, but every
    # max cone still touches both, so the divisors meet on the variety and
    # the pair is NOT exceptional
    assert exceptional_collections(fan, [(1, 0, 0), (0, 1, 1)]) == ()


def test_exceptional_collections_multiray_supports():
    fan = validate_fan(
        2, [(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )
    # canonical rays: (-1,1), (0,-1), (0,1), (1,0); canonical max cones:
    # (0,1) is missed by divisors avoiding rays 0 and 1, etc.
    divisors = [(1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    cols = exceptional_collections(fan, divisors)
    assert cols == ((0, 1, 2),)


def units(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def smooth_polygon(n):
    rays = fangen.smooth_polygon_rays(n)
    return validate_fan(2, rays, [(i, (i + 1) % n) for i in range(n)])


def random_collection_instance(rng):
    """Max cones as ray-index sets lacking one to three rays each, and 0-12
    coordinates whose supports have 0 (no positive entry), 1, 2 or all
    rays.  In about one instance in seven every coordinate is positive on a
    ray of the first cone."""
    n_rays = rng.randint(1, 8)
    missing = rng.randint(1, 3)
    cones = [
        tuple(sorted(rng.sample(range(n_rays), max(0, n_rays - rng.randint(1, missing)))))
        for _ in range(rng.randint(0, 10))
    ]
    coords = []
    for _ in range(rng.randint(0, 12)):
        size = min(n_rays, rng.choice((0, 1, 1, 1, 2, n_rays)))
        support = rng.sample(range(n_rays), size)
        coords.append(tuple(
            rng.randint(1, 2) if j in support else rng.choice((0, -1)) for j in range(n_rays)
        ))
    if cones and coords and rng.random() < 0.15:
        r = rng.randrange(n_rays)
        cones[0] = tuple(sorted(set(cones[0]) | {r}))
        coords = [w[:r] + (1,) + w[r + 1 :] for w in coords]
    return cones, coords


def test_exceptional_collections_match_bruteforce():
    rng = random.Random(20261018)
    seen = dict.fromkeys(
        ["no coordinates", "zero support", "touches every cone",
         "cone no coordinate misses", "nonempty answer", "collection of three"], 0
    )
    for _ in range(2000):
        cones, coords = random_collection_instance(rng)
        got = exceptional_collections(SimpleNamespace(max_cones=cones), coords)
        assert got == oracles.exceptional_collections_bruteforce(cones, coords), (
            cones, coords)
        if not cones:
            continue
        touched = [
            {ci for ci, c in enumerate(cones) if any(w[j] > 0 for j in c)}
            for w in coords
        ]
        seen["no coordinates"] += not coords
        seen["zero support"] += any(max(w) <= 0 for w in coords)
        seen["touches every cone"] += any(len(t) == len(cones) for t in touched)
        seen["cone no coordinate misses"] += bool(coords) and any(
            all(ci in t for t in touched) for ci in range(len(cones))
        )
        seen["nonempty answer"] += bool(got)
        seen["collection of three"] += any(len(c) >= 3 for c in got)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("n", range(5, 33))
def test_polygon_collections_are_the_non_adjacent_pairs(n):
    fan = smooth_polygon(n)
    non_adjacent = [
        (a, b) for a, b in itertools.combinations(range(n), 2)
        if not any({a, b} <= set(c) for c in fan.max_cones)
    ]
    assert len(non_adjacent) == n * (n - 3) // 2
    assert exceptional_collections(fan, units(n)) == tuple(non_adjacent)


@pytest.mark.parametrize("r", range(1, 6))
def test_p1_power_collections_are_the_opposite_pairs(r):
    rays = [tuple(s * (j == i) for j in range(r)) for i in range(r) for s in (1, -1)]
    cones = [
        tuple(2 * i + b for i, b in enumerate(bits))
        for bits in itertools.product((0, 1), repeat=r)
    ]
    fan = validate_fan(r, rays, cones)
    got = exceptional_collections(fan, units(2 * r))
    assert len(got) == r
    for a, b in got:
        assert all(x + y == 0 for x, y in zip(fan.rays[a], fan.rays[b]))


@pytest.mark.parametrize("n", range(1, 7))
def test_projective_space_collection_is_every_coordinate(n):
    rays = units(n) + [(-1,) * n]
    fan = validate_fan(n, rays, list(itertools.combinations(range(n + 1), n)))
    assert exceptional_collections(fan, units(n + 1)) == (tuple(range(n + 1)),)


def test_collection_guard_counts_faces(monkeypatch):
    # the 12-ray polygon's faces are its 12 rays and 12 edges
    fan, coords = smooth_polygon(12), units(12)
    monkeypatch.setattr(presentation, "MAX_COLLECTION_FACES", 24)
    assert len(exceptional_collections(fan, coords)) == 54
    monkeypatch.setattr(presentation, "MAX_COLLECTION_FACES", 23)
    with pytest.raises(ResourceLimitError) as e:
        exceptional_collections(fan, coords)
    assert str(e.value) == (
        "exceptional-collection search passed 24 faces, over guard 23: "
        "MAX_COLLECTION_FACES = 23 in toriclift.presentation, no flag overrides it"
    )


def test_cone_no_coordinate_misses_answers_before_the_guard(monkeypatch):
    # every subset of the 40 coordinates touches cone 0: no walk at all
    monkeypatch.setattr(presentation, "MAX_COLLECTION_FACES", 0)
    coords = [(1, 0, 0)] * 20 + [(1, 1, 0)] * 20
    fan = SimpleNamespace(max_cones=[(0, 1), (1, 2), (2,)])
    assert exceptional_collections(fan, coords) == ()


# -- degrees ------------------------------------------------------------------------


def test_degree_of_member():
    pres = presentation_from_subgroup(cox_subgroup(quadric_cone()))
    degree = dict(zip(pres.coordinates, pres.degrees))
    assert degree[(1, 0)] == degree[(0, 1)] == (1,)
    # degrees are additive: (1, 1) = (1, 0) + (0, 1) is principal, and
    # (1, 2) = (1, 0) + 2 (0, 1)
    reduce = pres.grading_group.reduce
    assert reduce((degree[(1, 0)][0] + degree[(0, 1)][0],)) == (0,)
    assert reduce((degree[(1, 0)][0] + 2 * degree[(0, 1)][0],)) == (1,)
    kajiwara = presentation_from_subgroup(kajiwara_subgroup(quadric_cone()))
    assert not kajiwara.subgroup.contains((1, 0))


# -- grading factorization ------------------------------------------------------------


def test_factorization_cox_quadric():
    pres = presentation_from_subgroup(cox_subgroup(quadric_cone()))
    fac = oracles.grading_factorization(pres)
    assert fac.into_class_group.domain == FgAbGroup(0, (2,))
    assert fac.into_class_group.codomain == FgAbGroup(0, (2,))
    assert fac.onto_residual.codomain == FgAbGroup(0)
    assert fac.composite_is_zero
    assert fac.ranks_additive
    assert fac.orders_multiplicative is True


def test_factorization_kajiwara_quadric():
    pres = presentation_from_subgroup(kajiwara_subgroup(quadric_cone()))
    fac = oracles.grading_factorization(pres)
    assert fac.into_class_group.domain == FgAbGroup(0)
    assert fac.onto_residual.codomain == FgAbGroup(0, (2,))
    assert fac.orders_multiplicative is True
    assert fac.composite_is_zero and fac.ranks_additive


def test_factorization_cox_p2():
    pres = presentation_from_subgroup(cox_subgroup(projective_plane()))
    fac = oracles.grading_factorization(pres)
    assert fac.into_class_group.codomain == FgAbGroup(1, ())
    assert fac.onto_residual.codomain == FgAbGroup(0)
    assert fac.orders_multiplicative is None  # infinite groups
    assert fac.composite_is_zero and fac.ranks_additive


def test_factorization_custom_principal():
    fan = quadric_cone()
    pres = presentation_from_subgroup(divisor_subgroup(fan, principal_basis(fan)))
    fac = oracles.grading_factorization(pres)
    assert fac.into_class_group.domain == FgAbGroup(0)
    assert fac.onto_residual.codomain == FgAbGroup(0, (2,))
    assert fac.composite_is_zero and fac.ranks_additive
    assert fac.orders_multiplicative is True
