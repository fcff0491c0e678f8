"""Quotient presentations of a toric variety from an admissible divisor
subgroup.

A presentation consists of: one coordinate per minimal generator of the
subgroup's effective semigroup, a grading of those coordinates by the
quotient of the subgroup by the principal divisors, and the exceptional
coordinate collections (minimal sets of coordinates whose common vanishing
locus misses the variety).  ``presentation_from_subgroup`` builds it from
any admissible subgroup; the classical constructions are those of
``divisors.cox_subgroup`` (the full divisor lattice) and
``divisors.kajiwara_subgroup`` (the Cartier divisors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .divisors import DivisorSubgroup, EnoughDivisorsReport, enough_divisors
from .fan import DegenerateFanError, Fan
from .lattice import FgAbGroup, ResourceLimitError, Vec

MAX_COLLECTION_FACES = 100_000


@dataclass(frozen=True)
class Presentation:
    """Quotient presentation data for a fan.

    ``coordinates[i]`` is the divisor of the i-th coordinate (a minimal
    generator of the effective semigroup of the subgroup); ``degrees[i]`` its
    degree in ``grading_group`` coordinates.  ``exceptional_collections``
    lists the minimal coordinate index sets whose common zero locus must be
    removed before taking the quotient.
    """

    subgroup: DivisorSubgroup
    coordinates: tuple[Vec, ...]
    degrees: tuple[Vec, ...]
    exceptional_collections: tuple[tuple[int, ...], ...]
    enough: EnoughDivisorsReport

    @property
    def n_coordinates(self) -> int:
        return len(self.coordinates)

    @property
    def grading_group(self) -> FgAbGroup:
        """The grading group (subgroup) / (principal divisors)."""
        return self.subgroup.grading_cokernel.group


def presentation_from_subgroup(sub: DivisorSubgroup) -> Presentation:
    """Construct the quotient presentation of an admissible subgroup.

    Degenerate fans are rejected: split off the torus factor first and
    present the reduced fan.
    """
    if sub.fan.is_degenerate:
        raise DegenerateFanError(
            "fan rays do not span the lattice; split off the torus factor "
            "and present the reduced fan"
        )
    coords = sub.effective_generators
    coker = sub.grading_cokernel
    collections = exceptional_collections(sub.fan, coords)
    return Presentation(
        subgroup=sub,
        coordinates=coords,
        degrees=tuple(coker.project(c) for c in sub.generator_coefficients),
        exceptional_collections=collections,
        enough=enough_divisors(sub),
    )


def exceptional_collections(
    fan: Fan, coordinates: Sequence[Vec]
) -> tuple[tuple[int, ...], ...]:
    """Minimal coordinate index sets whose divisors have empty common
    intersection on the variety.

    The supports of a set of effective divisors meet on the variety iff some
    max cone touches every one of them.  Those sets (the faces) are closed
    under taking subsets, and the exceptional collections are the minimal
    non-faces.  With each coordinate's missed cones as a bitmask, a set is a
    face iff its masks do not cover all cones.  The faces are walked depth
    first, each extended only by later coordinates: an extension that is no
    face is minimal iff dropping any earlier member leaves a face (dropping
    the new one gives the face it extends).  The work grows with the number
    of faces, which is guarded; for a Cox presentation of a simplicial fan
    it is the number of cones.
    """
    n_cones = len(fan.max_cones)
    if n_cones == 0:
        return ()
    every_cone = (1 << n_cones) - 1
    ray_cones: dict[int, int] = {}
    for ci, cone in enumerate(fan.max_cones):
        for j in cone:
            ray_cones[j] = ray_cones.get(j, 0) | 1 << ci
    useful: list[int] = []
    missed: list[int] = []
    coverable = 0
    for i, w in enumerate(coordinates):
        touched = 0
        for j, x in enumerate(w):
            if x > 0:
                touched |= ray_cones.get(j, 0)
        if touched != every_cone:
            useful.append(i)
            missed.append(every_cone & ~touched)
            coverable |= missed[-1]
    if coverable != every_cone:
        return ()  # some cone is missed by no coordinate: every set is a face
    found: list[tuple[int, ...]] = []
    faces = 0
    # (members, next position, their missed cones, the same without each member)
    stack: list[tuple[tuple[int, ...], int, int, tuple[int, ...]]] = [((), 0, 0, ())]
    while stack:
        members, start, covered, without = stack.pop()
        for pos in range(start, len(useful)):
            m = missed[pos]
            if covered | m != every_cone:
                faces += 1
                if faces > MAX_COLLECTION_FACES:
                    raise ResourceLimitError(
                        f"exceptional-collection search passed {faces} faces, "
                        f"over guard {MAX_COLLECTION_FACES}: MAX_COLLECTION_FACES = "
                        f"{MAX_COLLECTION_FACES} in toriclift.presentation, "
                        f"no flag overrides it"
                    )
                stack.append((
                    members + (useful[pos],),
                    pos + 1,
                    covered | m,
                    tuple(c | m for c in without) + (covered,),
                ))
            elif all(c | m != every_cone for c in without):
                found.append(members + (useful[pos],))
    return tuple(sorted(found))
