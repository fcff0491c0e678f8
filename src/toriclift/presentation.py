"""Quotient presentations of a toric variety from an admissible divisor
subgroup.

A presentation consists of: one coordinate per minimal generator of the
subgroup's effective semigroup, a grading of those coordinates by the
quotient of the subgroup by the principal divisors, and the exceptional
coordinate collections (minimal sets of coordinates whose common vanishing
locus misses the variety).  The classical constructions are the two built-in
modes: ``cox`` uses the full divisor lattice, ``kajiwara`` the Cartier
divisors; ``custom`` accepts any admissible subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .divisors import (
    DivisorSubgroup,
    EnoughDivisorsReport,
    class_group,
    cox_subgroup,
    divisor_subgroup,
    enough_divisors,
    kajiwara_subgroup,
)
from .fan import DegenerateFanError, Fan
from .lattice import (
    AbHom,
    CokernelData,
    FgAbGroup,
    IntMatrix,
    ResourceLimitError,
    Vec,
)

MODES = ("cox", "kajiwara", "custom")

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


def build_presentation(
    fan: Fan,
    mode: str = "cox",
    subgroup_rows: Optional[Sequence[Sequence[int]]] = None,
) -> Presentation:
    """Construct the quotient presentation for the chosen divisor subgroup.

    Degenerate fans are rejected: split off the torus factor first and
    present the reduced fan.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if fan.is_degenerate:
        raise DegenerateFanError(
            "fan rays do not span the lattice; split off the torus factor "
            "and present the reduced fan"
        )
    if mode == "cox":
        if subgroup_rows is not None:
            raise ValueError("subgroup_rows only applies to custom mode")
        sub = cox_subgroup(fan)
    elif mode == "kajiwara":
        if subgroup_rows is not None:
            raise ValueError("subgroup_rows only applies to custom mode")
        sub = kajiwara_subgroup(fan)
    else:
        if subgroup_rows is None:
            raise ValueError("custom mode requires subgroup_rows")
        sub = divisor_subgroup(fan, subgroup_rows)
    return presentation_from_subgroup(sub)


def presentation_from_subgroup(sub: DivisorSubgroup) -> Presentation:
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


# -- grading factorization -------------------------------------------------------


@dataclass(frozen=True)
class GradingFactorization:
    """The grading group's two-sided fit against the class group.

    ``into_class_group`` maps the presentation's grading group into the
    divisor class group; ``onto_residual`` maps the class group onto the
    classes modulo the subgroup; the three groups are their domains and
    codomains.  Diagnostics: the composite vanishes, free ranks are
    additive, and group orders are multiplicative when finite.
    """

    into_class_group: AbHom
    onto_residual: AbHom
    composite_is_zero: bool
    ranks_additive: bool
    orders_multiplicative: Optional[bool]


def grading_factorization(pres: Presentation) -> GradingFactorization:
    sub = pres.subgroup
    n = sub.fan.n_rays
    cl = class_group(sub.fan)
    grading_coker = sub.grading_cokernel
    grading = pres.grading_group

    # residual: divisors modulo the subgroup
    residual_coker = CokernelData(IntMatrix(sub.basis, cols=n).T)
    residual = residual_coker.group

    # grading generator -> divisor in Z^rays -> class
    rows_in = []
    for lift in grading_coker.generator_lifts:
        divisor = tuple(
            sum(c * row[j] for c, row in zip(lift, sub.basis)) for j in range(n)
        )
        rows_in.append(cl.project(divisor))
    into = AbHom(
        domain=grading,
        codomain=cl.group,
        matrix=IntMatrix(tuple(rows_in), cols=cl.group.n_generators),
    )

    # class generator -> divisor -> residual class
    rows_onto = []
    for divisor in cl.generator_lifts:
        rows_onto.append(residual_coker.project(divisor))
    onto = AbHom(
        domain=cl.group,
        codomain=residual,
        matrix=IntMatrix(tuple(rows_onto), cols=residual.n_generators),
    )

    composite = into.compose(onto)
    ranks_ok = grading.free_rank + residual.free_rank == cl.group.free_rank
    orders = (grading.order(), residual.order(), cl.group.order())
    orders_ok: Optional[bool]
    if all(o is not None for o in orders):
        orders_ok = orders[0] * orders[1] == orders[2]
    else:
        orders_ok = None

    return GradingFactorization(
        into_class_group=into,
        onto_residual=onto,
        composite_is_zero=composite.is_zero(),
        ranks_additive=ranks_ok,
        orders_multiplicative=orders_ok,
    )
