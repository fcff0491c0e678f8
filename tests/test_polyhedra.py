import itertools
import random

from toriclift.polyhedra import (
    dual_description,
    facet_description,
)

import oracles
from oracles import extreme_rays


def v_description(gens, dim):
    """(lines, extreme rays) of cone(gens), through its facet description."""
    return extreme_rays(facet_description(gens, dim), dim)


def test_dual_description_quadrant():
    lines, rays = dual_description([(1, 0), (0, 1)], 2)
    assert lines == ()
    assert rays == ((0, 1), (1, 0))


def test_dual_description_halfplane():
    lines, rays = dual_description([(1, 1)], 2)
    assert lines == ((1, -1),)
    assert rays == ((1, 0),)


def test_dual_description_no_constraints():
    lines, rays = dual_description([], 2)
    assert lines == ((0, 1), (1, 0))
    assert rays == ()


def test_dual_description_hyperplane():
    lines, rays = dual_description([(1, 0), (-1, 0)], 2)
    assert lines == ((0, 1),)
    assert rays == ()


def test_dual_description_origin_only():
    lines, rays = dual_description([(1, 0), (0, 1), (-1, -1)], 2)
    assert lines == ()
    assert rays == ()


def test_dual_description_skips_zero_normals():
    lines, rays = dual_description([(0, 0), (1, 0), (0, 1)], 2)
    assert lines == ()
    assert rays == ((0, 1), (1, 0))


def test_facets_of_quadrant():
    h = facet_description([(1, 0), (0, 1)], 2)
    assert h.equations == ()
    assert set(h.inequalities) == {(1, 0), (0, 1)}
    assert h.contains((3, 5)) and not h.contains((-1, 0))


def test_facets_of_single_ray():
    h = facet_description([(1, 1)], 2)
    assert h.equations == ((1, -1),)
    assert h.inequalities == ((1, 0),)
    assert h.contains((2, 2)) and not h.contains((2, 3)) and not h.contains((-1, -1))


def test_extreme_rays_drops_redundant():
    lines, rays = v_description([(1, 0), (1, 1), (1, 2)], 2)
    assert lines == ()
    assert rays == ((1, 0), (1, 2))


def test_extreme_rays_detects_lineality():
    lines, rays = v_description([(1, 0), (-1, 0), (0, 1)], 2)
    assert lines == ((1, 0),)
    assert rays == ((0, 1),)
    assert v_description([(1, 0), (0, 1)], 2)[0] == ()
    assert v_description([], 2) == ((), ())


def test_cone_over_square_facets():
    gens = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    h = facet_description(gens, 3)
    assert h.equations == ()
    assert len(h.inequalities) == 4
    for g in gens:
        assert h.contains(g)
    assert h.contains((0, 0, 1))  # interior axis
    assert not h.contains((2, 0, 1))
    lines, rays = v_description(gens, 3)
    assert lines == ()
    assert set(rays) == set(gens)


def test_membership_against_rational_oracle():
    rng = random.Random(42)
    for _ in range(30):
        dim = rng.randrange(2, 4)
        k = rng.randrange(1, 4)
        gens = []
        while len(gens) < k:
            g = tuple(rng.randrange(-3, 4) for _ in range(dim))
            if any(g):
                gens.append(g)
        h = facet_description(gens, dim)
        for p in itertools.product(range(-2, 3), repeat=dim):
            assert h.contains(p) == oracles.in_cone_bruteforce(p, gens), (gens, p)


def test_double_dual_is_identity_on_extreme_sets():
    rng = random.Random(3)
    for _ in range(20):
        dim = 3
        gens = []
        while len(gens) < 4:
            g = tuple(rng.randrange(-2, 3) for _ in range(dim))
            if any(g):
                gens.append(g)
        lines, rays = v_description(gens, dim)
        if lines:
            continue
        # recomputing from the reduced set changes nothing
        lines2, rays2 = v_description(rays, dim)
        assert lines2 == () and set(rays2) == set(rays)
        h = facet_description(gens, dim)
        for g in gens:
            assert h.contains(g)


def _random_normals(rng, dim):
    """Normals for a seeded double description in dimension ``dim``: a few
    to many, with zero normals, repeats, opposite pairs (lineality) and
    sums of earlier normals mixed in."""
    normals = []
    for _ in range(rng.randint(0, 2 * dim + 2)):
        kind = rng.random()
        if kind < 0.08 or not dim:
            normals.append((0,) * dim)
        elif normals and kind < 0.2:
            normals.append(rng.choice(normals))
        elif normals and kind < 0.3:
            normals.append(tuple(-x for x in rng.choice(normals)))
        elif len(normals) > 1 and kind < 0.4:
            a, b = rng.sample(normals, 2)
            normals.append(tuple(x + y for x, y in zip(a, b)))
        else:
            bound = 1 if rng.random() < 0.5 else 4
            normals.append(tuple(rng.randint(-bound, bound) for _ in range(dim)))
    return normals


def test_dual_description_matches_helper_oracle():
    """The inline double description returns exactly the (lines, rays) of
    the same algorithm written with one helper call per vector operation,
    on 10,000 seeded inputs in dimensions 0 to 6."""
    rng = random.Random(2024)
    lineality = pointed = 0
    for _ in range(10_000):
        dim = rng.choice((0, 1, 2, 2, 3, 3, 3, 4, 4, 5, 6))
        normals = _random_normals(rng, dim)
        got = dual_description(normals, dim)
        assert got == oracles.dual_description_by_helpers(normals, dim), (normals, dim)
        lineality += bool(got[0]) and bool(got[1])
        pointed += not got[0] and len(got[1]) > dim
    # cones with both lines and rays, and pointed cones with more rays than
    # the dimension, are both well represented
    assert lineality > 500 and pointed > 500
