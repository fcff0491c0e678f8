import itertools
import random
from collections import Counter
from math import gcd

import pytest

import fangen
import oracles
from toriclift.fan import (
    FanValidationError,
    split_torus_factor,
    validate_fan,
)
from toriclift import fan as fan_module
from toriclift import isomorphism, lattice, lifting, polyhedra, presentation
from toriclift.divisors import cox_subgroup
from toriclift.isomorphism import fan_isomorphic
from toriclift.lattice import (
    IntMatrix,
    ResourceLimitError,
    determinant,
    hilbert_basis,
    smith_normal_form,
)
from toriclift.lifting import solve_geometric_pullback, validate_toric_morphism
from toriclift.presentation import exceptional_collections


def projective_plane():
    return validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def quadric_cone():
    return validate_fan(2, [(1, 0), (1, 2)], [(0, 1)])


def cone_over_square():
    return validate_fan(
        3,
        [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)],
        [(0, 1, 2, 3)],
    )


def hirzebruch(a=1):
    return validate_fan(
        2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )


# -- canonicalization ----------------------------------------------------------


def test_canonical_order():
    fan = projective_plane()
    assert fan.rays == ((-1, -1), (0, 1), (1, 0))
    assert fan.max_cones == ((0, 1), (0, 2), (1, 2))


def test_input_order_irrelevant():
    a = projective_plane()
    b = validate_fan(2, [(-1, -1), (1, 0), (0, 1)], [(1, 2), (0, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)


def test_empty_fan_and_point():
    t = validate_fan(2, [], [])  # the 2-torus
    assert t.rays == () and t.max_cones == ()
    assert t.is_degenerate
    pt = validate_fan(0, [], [])
    assert pt.rank == 0 and not pt.is_degenerate


# -- validation diagnostics ------------------------------------------------------


def bad(rank, rays, cones):
    with pytest.raises(FanValidationError) as ei:
        validate_fan(rank, rays, cones)
    return ei.value.problems


def test_rejects_bad_rays():
    probs = bad(2, [(0, 0), (2, 0), (1, 0, 0)], [(0, 1, 2)])
    text = "\n".join(probs)
    assert "zero" in text
    assert "not primitive" in text
    assert "coordinates" in text
    assert len(probs) == 3  # all three reported at once


def test_rejects_duplicate_ray():
    probs = bad(2, [(1, 0), (1, 0)], [(0, 1)])
    assert any("duplicates" in p for p in probs)


def test_rejects_bad_cone_indices():
    probs = bad(2, [(1, 0), (0, 1)], [(0, 5)])
    assert any("unknown rays" in p for p in probs)
    probs = bad(2, [(1, 0), (0, 1)], [(0, 0, 1)])
    assert any("twice" in p for p in probs)
    probs = bad(2, [(1, 0), (0, 1)], [()])
    assert any("empty" in p for p in probs)


def test_rejects_uncovered_ray():
    probs = bad(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1)])
    assert any("lies in no max cone" in p for p in probs)


def test_rejects_non_pointed_cone():
    probs = bad(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)])
    assert any("not strongly convex" in p for p in probs)


def test_rejects_non_extreme_listed_ray():
    probs = bad(2, [(1, 0), (1, 1), (1, 2)], [(0, 1, 2)])
    assert any("not an extreme ray" in p for p in probs)


def test_rejects_dependent_rays_of_a_lower_dimensional_cone():
    # fewer rays than the rank, but not linearly independent
    probs = bad(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    assert probs == ["max cone [0, 1, 2] is not strongly convex (contains a line)"]
    probs = bad(3, [(1, 0, 0), (1, 1, 0), (1, 2, 0)], [(0, 1, 2)])
    assert probs == ["ray 1 = [1, 1, 0] is not an extreme ray of max cone [0, 1, 2]"]


def test_rejects_contained_cone():
    probs = bad(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
    assert any("contained in" in p for p in probs)


def test_rejects_non_face_overlap():
    probs = bad(
        2, [(1, 0), (1, 2), (1, 1), (0, 1)], [(0, 1), (2, 3)]
    )
    assert any("not a common face" in p for p in probs)


# -- the pairwise common-face test: separator against the oracle -------------------

# the invalid shapes of the benchmark's present workload
INVALID_SHAPES = [
    # cone((1,1),(-1,0)) cuts through cone((1,0),(0,1))
    (2, [(1, 0), (0, 1), (1, 1), (-1, 0)], [(0, 1), (2, 3)]),
    (2, [(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)]),
    (2, [(2, 0), (0, 1)], [(0, 1)]),
    (2, [(1, 0), (1, 1), (1, 2)], [(0, 1, 2)]),
    (2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)]),
]


# rank 4: tau = cone(a, c, f) meets sigma = cone(a, b, c, d, e) in the diagonal
# cone(a, c) of sigma's square facet cone(a, b, c, d), which is no face of sigma
SQUARE_DIAGONAL = (
    4,
    [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1), (0, 0, 0, -1)],
    [(0, 1, 2, 3, 4), (0, 2, 5)],
)


def _random_cone_pair(rng):
    """Two random cones in rank 1-3 over rays with entries in [-2, 2]; most
    are simplicial of full dimension, so they often overlap."""
    rank = rng.randint(1, 3)
    pool = [
        v for v in itertools.product(range(-2, 3), repeat=rank) if gcd(*v, 0) == 1
    ]
    # rank 1 has only the two rays +-1
    rays = rng.sample(pool, min(len(pool), 2 * rank))
    sizes = (rank - 1 or 1, rank, rank, rank, rank + 1) if rank > 1 else (1,)
    cones = [rng.sample(range(len(rays)), rng.choice(sizes)) for _ in range(2)]
    used = sorted(set(cones[0]) | set(cones[1]))
    return (
        rank,
        [rays[i] for i in used],
        [[used.index(i) for i in cone] for cone in cones],
    )


def _outcome(rank, rays, cones):
    try:
        return validate_fan(rank, rays, cones)
    except FanValidationError as e:
        return e.problems


def test_separator_agrees_with_double_description_oracle(monkeypatch):
    rng = random.Random(4711)
    inputs = []
    for _ in range(300):
        fan = fangen.random_fan(rng, torus_rank=rng.randint(0, 2))
        inputs.append((fan.rank, fan.rays, fan.max_cones))
    inputs += INVALID_SHAPES + [SQUARE_DIAGONAL]
    inputs += [_random_cone_pair(rng) for _ in range(1500)]
    # which certificate decides each pair: they are tried in turn, so at most
    # one holds per pair.  The one-facet certificate is read inside the facet
    # walk of _meet_in_common_face, so it decides the pairs that neither a sum
    # of facet normals nor the double description of the exact branch does.
    results = Counter()
    meet = fan_module._meet_in_common_face
    separates = fan_module._separates
    describe = polyhedra.dual_description

    def counted_describe(*args):
        results["dual descriptions"] += 1
        return describe(*args)

    def counted_meet(*args):
        before = results["dual descriptions"]
        result = meet(*args)
        results["pairs"] += 1
        results["exact"] += results["dual descriptions"] - before
        return result

    def counted_separates(*args):
        result = separates(*args)
        results["by sum"] += result
        return result

    monkeypatch.setattr(fan_module, "_meet_in_common_face", counted_meet)
    monkeypatch.setattr(fan_module, "_separates", counted_separates)
    monkeypatch.setattr(polyhedra, "dual_description", counted_describe)
    got = [_outcome(*x) for x in inputs]
    monkeypatch.setattr(polyhedra, "dual_description", describe)
    pairs, by_sum, exact = results["pairs"], results["by sum"], results["exact"]
    # one facet, a sum of facet normals and the exact branch decide 777, 24
    # and 120 of 921 pairs
    assert by_sum > 0 and exact > 0 and pairs - by_sum - exact > 0
    monkeypatch.setattr(
        fan_module, "_meet_in_common_face", oracles.common_face_by_double_description
    )
    want = [_outcome(*x) for x in inputs]
    assert got == want
    not_a_face = [
        o for o in want
        if isinstance(o, list) and any("is not a common face" in p for p in o)
    ]
    assert len(not_a_face) >= 40


def _random_cones(rng):
    """One or two random cones in rank 1-4 over rays with entries in [-2, 2];
    a cone may also get a redundant generator (the sum of two of its rays) or
    the opposite of one of its rays."""
    rank = rng.randint(1, 4)
    pool = [
        v for v in itertools.product(range(-2, 3), repeat=rank) if gcd(*v, 0) == 1
    ]
    rays, cones = [], []
    for _ in range(rng.randint(1, 2)):
        gens = rng.sample(pool, rng.randint(1, min(len(pool), rank + 1)))
        extra = rng.random()
        if extra < 0.3 and len(gens) > 1:
            u, v = rng.sample(gens, 2)
            if any(x + y for x, y in zip(u, v)):
                gens.append(lattice.primitive_vector([x + y for x, y in zip(u, v)]))
        elif extra < 0.5:
            gens.append(tuple(-x for x in rng.choice(gens)))
        cone = set()
        for g in gens:
            if g not in rays:
                rays.append(g)
            cone.add(rays.index(g))
        cones.append(sorted(cone))
    return rank, rays, cones


def _convexity_problems_by_oracle(rank, rays, cones):
    """The strong-convexity and extreme-ray problems of ``validate_fan``,
    predicted from a second double description of every max cone."""
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    position = {old: new for new, old in enumerate(order)}
    canon_rays = [rays[i] for i in order]
    problems = []
    for cone in sorted({tuple(sorted(position[i] for i in c)) for c in cones}):
        gens = [canon_rays[i] for i in cone]
        h = polyhedra.facet_description(gens, rank)
        lines, extreme = oracles.extreme_rays(h, rank)
        if lines:
            problems.append(
                f"max cone {list(cone)} is not strongly convex (contains a line)"
            )
            continue
        problems += [
            f"ray {i} = {list(canon_rays[i])} is not an extreme ray of max cone {list(cone)}"
            for i in cone
            if canon_rays[i] not in extreme
        ]
    return problems


def test_convexity_and_extremality_match_double_description_oracle():
    rng = random.Random(6)
    with_line = not_extreme = 0
    for _ in range(2000):
        rank, rays, cones = _random_cones(rng)
        outcome = _outcome(rank, rays, cones)
        got = [
            p for p in (outcome if isinstance(outcome, list) else [])
            if "not strongly convex" in p or "not an extreme ray" in p
        ]
        want = _convexity_problems_by_oracle(rank, rays, cones)
        assert got == want, (rank, rays, cones)
        with_line += any("not strongly convex" in p for p in want)
        not_extreme += any("not an extreme ray" in p for p in want)
    assert with_line >= 700 and not_extreme >= 400, (with_line, not_extreme)


def _product(*fans):
    """Rank, rays and max cones of a product of fans given the same way."""
    rank = sum(f[0] for f in fans)
    rays, parts, offset = [], [], 0
    for r, rs, cs in fans:
        base = len(rays)
        rays += [(0,) * offset + tuple(v) + (0,) * (rank - offset - r) for v in rs]
        parts.append([tuple(base + i for i in c) for c in cs])
        offset += r
    return rank, rays, [sum(c, ()) for c in itertools.product(*parts)]


def _projective_space(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return n, rays, list(itertools.combinations(range(n + 1), n))


def _smooth_polygon(n):
    return 2, fangen.smooth_polygon_rays(n), [(i, (i + 1) % n) for i in range(n)]


F2 = (2, [(1, 0), (0, 1), (-1, 2), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])
# the fan over the faces of the cube [-1, 1]^3: six non-simplicial cones
CUBE_RAYS = list(itertools.product((-1, 1), repeat=3))
CUBE = (
    3,
    CUBE_RAYS,
    [
        tuple(i for i, v in enumerate(CUBE_RAYS) if v[axis] == side)
        for axis in range(3)
        for side in (-1, 1)
    ],
)


@pytest.mark.parametrize(
    "shape, calls",
    [
        (_projective_space(6), 7),
        (_product(*[_projective_space(1)] * 5), 32),
        (_product(_projective_space(2), _projective_space(2)), 9),
        (_product(F2, _projective_space(1)), 8),
        # six facet descriptions; extremality is read off their incidences
        (CUBE, 6),
        # pairs sharing no ray, which no facet-normal sum separates, are
        # certified by one facet (16, 40 and 110 calls before)
        (_smooth_polygon(8), 8),
        (_smooth_polygon(14), 14),
        (_smooth_polygon(24), 24),
    ],
    ids=["P6", "(P1)^5", "P2xP2", "F2xP1", "cube", "polygon8", "polygon14", "polygon24"],
)
def test_validation_double_descriptions(monkeypatch, shape, calls):
    """One double description per max cone, its facet description, from
    whose ray-facet incidences strong convexity and extremality are read
    with no rank computed; every pair is certified without one."""
    count = {"dual_description": 0, "matrix_rank": 0}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args):
            count[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, call)

    counted(polyhedra, "dual_description")
    counted(fan_module, "matrix_rank")
    fan = validate_fan(*shape)
    assert len(fan.max_cones) == len(shape[2])
    # the cube took 30 rank computations before the incidence table
    assert count == {"dual_description": calls, "matrix_rank": 0}


def test_rejects_overlap_in_no_face_of_one_cone():
    probs = bad(*SQUARE_DIAGONAL)
    assert probs == [
        "intersection of max cones [0, 1, 3, 4, 5] and [0, 2, 5] is not a common face"
    ]
    # the same overlap with the simplicial cone first in canonical order: its
    # rays on the hyperplane of the double description are a proper subset
    # of the square cone's, and the test must still reject the pair
    rank, rays, cones = SQUARE_DIAGONAL
    probs = bad(rank, rays[:5] + [(-1, 0, 0, -1)], cones)
    assert probs == [
        "intersection of max cones [0, 1, 5] and [1, 2, 3, 4, 5] is not a common face"
    ]


def test_guards():
    with pytest.raises(ResourceLimitError):
        validate_fan(7, [], [])
    rays = [(1, i) for i in range(65)]
    cones = [(i, i + 1) for i in range(64)]
    with pytest.raises(ResourceLimitError):
        validate_fan(2, rays, cones)


def _plane():
    return validate_fan(2, [(1, 0), (0, 1)], [(0, 1)])


def _index_two_hilbert():
    h = ((1, 1), (0, 2))
    return hilbert_basis(h, oracles.effective_cone_rays(h))


def _p2_self_iso():
    return fan_isomorphic(projective_plane(), projective_plane())


def _line_into_square_cone():
    # a non-simplicial target: the effectivity search runs over one direction
    line = validate_fan(1, [(1,)], [(0,)])
    target = cone_over_square()
    f = validate_toric_morphism(line, target, IntMatrix([(1,), (0,), (3,)]))
    return solve_geometric_pullback(f, cox_subgroup(target), cox_subgroup(line))


def _p2_collections():
    return exceptional_collections(projective_plane(), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.mark.parametrize(
    "module, constant, trip, override",
    [
        (fan_module, "MAX_RANK", _plane, "no flag overrides it"),
        (fan_module, "MAX_RAYS", _plane, "override with --max-rays"),
        (lattice, "MAX_HILBERT_POINTS", _index_two_hilbert, "no flag overrides it"),
        (isomorphism, "MAX_ISO_ASSIGNMENTS", _p2_self_iso, "no flag overrides it"),
        (lifting, "MAX_SEARCH_POINTS", _line_into_square_cone, "lower --search-bound"),
        (lifting, "MAX_PROJECTION_PAIRS", _line_into_square_cone, "no flag overrides it"),
        (presentation, "MAX_COLLECTION_FACES", _p2_collections, "no flag overrides it"),
    ],
)
def test_guard_messages_name_constant_and_override(
    monkeypatch, module, constant, trip, override
):
    trip()  # passes under the default guard
    monkeypatch.setattr(module, constant, 1)
    with pytest.raises(ResourceLimitError) as e:
        trip()
    assert f"{constant} = 1 in {module.__name__}, {override}" in str(e.value)


@pytest.mark.parametrize(
    "module, constant, trip, reached",
    [
        (lattice, "MAX_HILBERT_POINTS", _index_two_hilbert, 2),
        (lifting, "MAX_PROJECTION_PAIRS", _line_into_square_cone, 4),
    ],
)
def test_guards_admit_exactly_their_limit(monkeypatch, module, constant, trip, reached):
    # a guard refuses a count past its constant, not one equal to it
    monkeypatch.setattr(module, constant, reached)
    trip()
    monkeypatch.setattr(module, constant, reached - 1)
    with pytest.raises(ResourceLimitError, match=f"{constant} = {reached - 1} in"):
        trip()


# -- location ---------------------------------------------------------------------


def test_locate_interior_face_and_outside():
    fan = projective_plane()
    # rays are (-1,-1)=0, (0,1)=1, (1,0)=2
    assert fan.locate((2, 1)) == (1, 2)
    assert fan.locate((1, 0)) == (2,)
    assert fan.locate((0, 0)) == ()
    # complete fan: everything has a location
    assert fan.locate((-5, 3)) is not None


def test_locate_outside_support():
    fan = quadric_cone()
    assert fan.locate((-1, 0)) is None
    assert fan.locate((1, 1)) == (0, 1)
    assert fan.locate((1, 0)) == (0,)
    assert fan.locate((1, 2)) == (1,)


def test_locate_torus_fan():
    fan = validate_fan(2, [], [])
    assert fan.locate((0, 0)) == ()
    assert fan.locate((1, 0)) is None


def test_locate_matches_per_facet_oracle():
    """The minimal cone read off the ray-facet incidences is the one the
    per-facet dot loop finds, at ray images, random points, zero and points
    outside the support."""
    rng = random.Random(1414)
    outside = zero = lower = 0
    for _ in range(400):
        fan = fangen.random_fan(rng, torus_rank=rng.randint(0, 2))
        n = fan.rank
        matrix = IntMatrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)], cols=n)
        points = [matrix.apply(ray) for ray in fan.rays]
        points += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(4)]
        points.append((0,) * n)
        # the opposite of a max cone's ray sum lies outside a fan that is not complete
        points += [tuple(-sum(x) for x in zip(*fan.cone_rays(cone))) for cone in fan.max_cones]
        for p in points:
            got = fan.locate(p)
            assert got == oracles.locate_by_facets(fan, p), (fan, p)
            outside += got is None
            zero += got == ()
            lower += bool(got) and got not in fan.max_cones
    # 2,520 outside, 485 at zero and 187 in lower-dimensional faces at this seed
    assert outside >= 2000 and zero >= 400 and lower >= 150, (outside, zero, lower)


def test_morphism_problems_match_per_cone_containment_oracle():
    """A source cone maps into the target fan iff the faces of its rays'
    images lie in one target max cone: the problems are exactly those of the
    per-cone containment test."""
    rng = random.Random(1313)
    accepted = rejected = zero = 0
    for _ in range(2000):
        source = fangen.random_fan(rng)
        target = fangen.random_fan(rng, torus_rank=rng.randint(0, 1))
        entries = 0 if rng.random() < 0.1 else 2
        matrix = IntMatrix(
            [[rng.randint(-entries, entries) for _ in range(source.rank)]
             for _ in range(target.rank)],
            cols=source.rank,
        )
        want = oracles.morphism_problems_by_containment(source, target, matrix)
        try:
            validate_toric_morphism(source, target, matrix)
            got = []
        except lifting.MorphismValidationError as e:
            got = e.problems
        assert got == want, (source, target, matrix)
        accepted += not got
        rejected += bool(got)
        # some source max cone maps to zero
        zero += any(not any(x for i in c for x in matrix.apply(source.rays[i])) for c in source.max_cones)
    # 470 accepted, 1,530 rejected and 243 with a zero cone image at this seed
    assert accepted >= 300 and rejected >= 1000 and zero >= 40, (accepted, rejected, zero)


# -- smoothness -------------------------------------------------------------------


def test_smoothness_profiles():
    assert projective_plane().is_smooth
    q = quadric_cone()
    assert q.is_simplicial and not q.is_smooth
    # multiplicity 2: the index of the ray lattice in its saturation
    assert smith_normal_form(q.ray_matrix()).invariant_factors == (1, 2)
    c = cone_over_square()
    assert not c.is_simplicial and not c.is_smooth
    # four rays spanning three dimensions
    assert len(c.max_cones[0]) == 4 and smith_normal_form(c.ray_matrix()).rank == 3
    assert hirzebruch().is_smooth


def test_face_is_smooth():
    # a face is smooth iff the Smith form of its rays shows them part of a
    # lattice basis, the test the ``strict_transform`` oracle makes per ray
    fan = cone_over_square()

    def face_is_smooth(face):
        snf = smith_normal_form(IntMatrix(fan.cone_rays(face), cols=fan.rank))
        return fan_module._is_basis_part(snf, len(face))

    assert face_is_smooth(())
    assert face_is_smooth((0,))
    # the full cone is singular
    assert not face_is_smooth((0, 1, 2, 3))
    # 2-dimensional faces are smooth: e.g. rays (1,0,1) and (0,1,1)
    i = fan.rays.index((1, 0, 1))
    j = fan.rays.index((0, 1, 1))
    assert face_is_smooth((i, j))


# -- torus factor splitting ---------------------------------------------------------


def test_split_nondegenerate():
    fan = projective_plane()
    s = split_torus_factor(fan)
    assert s.torus_rank == 0
    assert s.reduced_fan.rank == 2
    assert abs(determinant(s.change_of_basis)) == 1


def test_split_degenerate_quadrant_in_3d():
    fan = validate_fan(3, [(1, 0, 0), (0, 1, 0)], [(0, 1)])
    s = split_torus_factor(fan)
    assert s.torus_rank == 1
    r = s.reduced_fan
    assert r.rank == 2 and len(r.rays) == 2 and r.max_cones == ((0, 1),)
    assert abs(determinant(s.change_of_basis)) == 1
    for i, ray in enumerate(fan.rays):
        img = s.change_of_basis.apply(ray)
        assert img[2:] == (0,)
        assert r.rays[s.ray_map[i]] == img[:2]


def test_split_skew_plane():
    # rays spanning a skew rank-2 sublattice of Z^3
    fan = validate_fan(3, [(1, 1, 0), (0, 1, 1)], [(0,), (1,)])
    s = split_torus_factor(fan)
    assert s.torus_rank == 1
    assert s.reduced_fan.rank == 2
    assert s.reduced_fan.is_smooth
    for i, ray in enumerate(fan.rays):
        img = s.change_of_basis.apply(ray)
        assert img[2] == 0
        assert s.reduced_fan.rays[s.ray_map[i]] == img[:2]


def test_split_pure_torus():
    fan = validate_fan(3, [], [])
    s = split_torus_factor(fan)
    assert s.torus_rank == 3
    assert s.reduced_fan.rank == 0


def test_split_reduced_fan_passes_validation():
    # the reduced fan is built without re-checking the fan axioms; check them
    rng = random.Random(11)
    for _ in range(150):
        fan = fangen.random_fan(rng, torus_rank=rng.randint(0, 2))
        s = split_torus_factor(fan)
        r = s.reduced_fan
        assert r == validate_fan(r.rank, r.rays, r.max_cones)
        for i, ray in enumerate(fan.rays):
            assert s.change_of_basis.apply(ray)[: r.rank] == r.rays[s.ray_map[i]]


def test_split_line_fan():
    fan = validate_fan(2, [(1, 1), (-1, -1)], [(0,), (1,)])
    s = split_torus_factor(fan)
    assert s.torus_rank == 1
    r = s.reduced_fan
    assert r.rank == 1
    assert set(r.rays) == {(1,), (-1,)}


# -- randomized unimodular invariance ----------------------------------------------


def random_unimodular(rng, n):
    m = IntMatrix.identity(n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows = [list(r) for r in m]
        for k in range(n):
            rows[i][k] += c * rows[j][k]
        m = IntMatrix(rows)
    return m


def test_unimodular_images_stay_valid():
    rng = random.Random(2468)
    base = projective_plane()
    for _ in range(10):
        u = random_unimodular(rng, 2)
        assert abs(determinant(u)) == 1
        rays = [u.apply(r) for r in base.rays]
        fan = validate_fan(2, rays, base.max_cones)
        assert fan.is_smooth
        assert len(fan.max_cones) == 3
