"""Seeded random-fan machinery for property tests.

Fans are drawn from a library of hand-validated shapes, then optionally
thinned to a subfan and conjugated by a random unimodular matrix.  Every
output passes full validation, and all randomness flows through an explicit
``random.Random`` so failures replay exactly.
"""

from itertools import product
from random import Random

from toriclift.fan import Fan, validate_fan
from toriclift.lattice import IntMatrix

_SHAPES = {
    1: [
        (1, [(1,)], [(0,)]),
        (1, [(-1,), (1,)], [(0,), (1,)]),
    ],
    2: [
        # projective plane
        (2, [(-1, -1), (0, 1), (1, 0)], [(0, 1), (0, 2), (1, 2)]),
        # quadrant
        (2, [(0, 1), (1, 0)], [(0, 1)]),
        # quadric cone
        (2, [(1, 0), (1, 2)], [(0, 1)]),
        # product of two lines
        (
            2,
            [(-1, 0), (0, -1), (0, 1), (1, 0)],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
        ),
        # Hirzebruch surface
        (
            2,
            [(-1, 1), (0, -1), (0, 1), (1, 0)],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
        ),
        # two opposite rays
        (2, [(-1, 0), (1, 0)], [(0,), (1,)]),
    ],
    3: [
        # octant
        (3, [(0, 0, 1), (0, 1, 0), (1, 0, 0)], [(0, 1, 2)]),
        # cone over the diamond
        (
            3,
            [(-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1)],
            [(0, 1, 2, 3)],
        ),
        # cone over the unit square
        (
            3,
            [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
            [(0, 1, 2, 3)],
        ),
        # octant subdivided along the long diagonal
        (
            3,
            [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
            [(0, 1, 3), (0, 2, 3), (1, 2, 3)],
        ),
    ],
}


def random_unimodular(rank: int, rng: Random, ops: int = 12) -> IntMatrix:
    """Product of elementary integer row operations: always det +-1."""
    m = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(rank)
        j = rng.randrange(rank)
        if kind == 0 and i != j:
            k = rng.choice([-2, -1, 1, 2])
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-a for a in m[i]]
    return IntMatrix(m, cols=rank)


def conjugate_fan(fan: Fan, u: IntMatrix) -> Fan:
    """The same fan in a different lattice basis (rays mapped through u)."""
    rays = [u.apply(r) for r in fan.rays]
    # validate_fan re-sorts rays, so re-express the cones by ray value
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    back = {old: new for new, old in enumerate(order)}
    cones = [tuple(sorted(back[i] for i in cone)) for cone in fan.max_cones]
    return validate_fan(fan.rank, [rays[i] for i in order], cones)


def subfan(fan: Fan, rng: Random) -> Fan:
    """Keep a nonempty random subset of the max cones (and the rays in use)."""
    keep = [c for c in fan.max_cones if rng.random() < 0.7]
    if not keep:
        keep = [rng.choice(fan.max_cones)]
    used = sorted({i for cone in keep for i in cone})
    back = {old: new for new, old in enumerate(used)}
    return validate_fan(
        fan.rank,
        [fan.rays[i] for i in used],
        [tuple(sorted(back[i] for i in cone)) for cone in keep],
    )


def random_fan(rng: Random, max_rank: int = 3, torus_rank: int = 0) -> Fan:
    """A random valid fan: library shape, thinned, embedded, conjugated."""
    rank = rng.randint(1, max_rank)
    shape_rank, rays, cones = rng.choice(_SHAPES[rank])
    fan = validate_fan(shape_rank, rays, cones)
    if rng.random() < 0.5:
        fan = subfan(fan, rng)
    total = rank + torus_rank
    if torus_rank:
        padded = [r + (0,) * torus_rank for r in fan.rays]
        fan = validate_fan(total, padded, fan.max_cones)
    return conjugate_fan(fan, random_unimodular(total, rng))


def product_fan(*fans: Fan) -> Fan:
    """The product of fans: each factor's rays in its own block of
    coordinates, one max cone per choice of a max cone of every factor."""
    rank = sum(f.rank for f in fans)
    rays, parts, offset = [], [], 0
    for f in fans:
        first = len(rays)
        rays += [(0,) * offset + r + (0,) * (rank - offset - f.rank) for r in f.rays]
        parts.append([tuple(first + i for i in c) for c in f.max_cones])
        offset += f.rank
    return validate_fan(rank, rays, [sum(c, ()) for c in product(*parts)])


def smooth_polygon_rays(n: int) -> list[tuple[int, int]]:
    """Rays, in cyclic order, of a smooth complete polygon fan with n >= 3
    rays: the projective plane blown up n - 3 times at torus-fixed points
    spread around the cycle.  Its max cones are the consecutive pairs."""
    cycle = [(1, 0), (0, 1), (-1, -1)]
    while len(cycle) < n:
        i = 5 * (len(cycle) - 3) % len(cycle)
        u, v = cycle[i], cycle[(i + 1) % len(cycle)]
        cycle.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return cycle
