"""Torus-invariant divisors on a fan: principal and Cartier divisors and
admissible divisor subgroups.

Divisors are integer coefficient vectors indexed by the fan's rays (in the
fan's canonical ray order).  An *admissible divisor subgroup* is a saturated
choice of divisors from which a quotient presentation is built: it must have
independent generators, contain every principal divisor, and be generated by
its effective members together with the principal divisors.  Each divisor
fact is read off a subgroup: the Cox subgroup, all of Z^rays, has the class
group as its grading cokernel (the same group for a degenerate fan and its
reduced fan, which have the same principal divisors) and the Cartier
divisors as its Cartier members, which span the Kajiwara subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from . import polyhedra
from .fan import Fan
from .lattice import (
    CokernelData,
    IntMatrix,
    Vec,
    hermite_coefficients,
    hermite_row_basis,
    hilbert_basis,
    kernel_basis,
    primitive_vector,
    vec_dot,
)


class SubgroupValidationError(ValueError):
    """A candidate divisor subgroup violates an admissibility condition."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# -- divisors -----------------------------------------------------------------


def principal_basis(fan: Fan) -> tuple[Vec, ...]:
    """Principal divisors of the character basis: row j is div of the j-th
    coordinate character, i.e. (<e_j, ray>) over the rays."""
    return tuple(
        tuple(ray[j] for ray in fan.rays) for j in range(fan.rank)
    )


def cartier_lattice(fan: Fan, basis: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Canonical (Hermite) basis of the Cartier divisors in the lattice with
    Hermite basis ``basis``; the identity basis gives all Cartier divisors.

    A divisor d is Cartier iff on each max cone sigma it agrees with one
    character, d|sigma = R m for sigma's ray matrix R (Cox-Little-Schenck,
    Toric Varieties, Thm 4.2.8).  With sigma's cached Smith form U R V = S
    (``Fan.cone_snfs``) that says (U d|sigma)_k is a multiple of s_k below
    the rank and zero past it: a row a of A per invariant factor other than
    1 and per rank deficit of each max cone (none for a smooth cone).  For
    d = c B over the basis B the members are the images c B of the kernel
    of one system [A B^T | -diag(s)], in c and a multiplier unknown per
    congruence; with no condition every member is Cartier, and B is the
    answer.  A cone shown smooth by its facet normals (``_has_dual_facets``),
    as every full-dimensional smooth cone is, since its primitive facet
    normals are the dual basis, is passed without its Smith form.
    """
    n = fan.n_rays
    rows, factors = [], []
    for ci, cone in enumerate(fan.max_cones):
        if _has_dual_facets(fan.cone_rays(cone), fan.cone_hreps[ci].inequalities):
            continue
        snf = fan.cone_snfs[ci]
        padded = snf.invariant_factors + (0,) * (len(cone) - snf.rank)
        if padded.count(1) == len(padded):  # a smooth cone: no condition
            continue
        on_cone = [[b[i] for i in cone] for b in basis]
        for u, factor in zip(snf.U, padded):
            if factor != 1:
                rows.append([vec_dot(u, b) for b in on_cone])
                factors.append(factor)
    if not rows:
        return basis
    k = len(basis)
    congruences = [r for r, factor in enumerate(factors) if factor]
    stacked = [row + [-factors[r] * (r == q) for q in congruences] for r, row in enumerate(rows)]
    kernel = kernel_basis(IntMatrix(stacked))
    if _is_identity(basis, n):  # c B is c itself
        return hermite_row_basis((v[:k] for v in kernel), width=n)
    members = IntMatrix(basis, cols=n)
    return hermite_row_basis((members.left_apply(v[:k]) for v in kernel), width=n)


def _is_identity(basis: Sequence[Vec], n: int) -> bool:
    """Whether a Hermite basis in Z^n is the identity: with n rows its
    pivots lie on the diagonal, and entries above a pivot of 1 are reduced
    to 0."""
    return len(basis) == n and all(r[i] == 1 for i, r in enumerate(basis))


def _has_dual_facets(rays: Sequence[Vec], normals: Sequence[Vec]) -> bool:
    """Whether some facet normals u_i pair with the rays v_j as a dual basis,
    <u_i, v_j> = 1 if i = j else 0.  Then x -> (<u_i, x>) maps Z^rank onto
    Z^k, k = len(rays), sending the rays to the unit vectors, so their span
    is a direct summand: the rays are part of a lattice basis, the cone is
    smooth."""
    paired = set()
    for u in normals:
        values = [vec_dot(u, v) for v in rays]
        if values.count(0) == len(values) - 1 and 1 in values:
            paired.add(values.index(1))
    return len(paired) == len(rays)


# -- admissible divisor subgroups ------------------------------------------------


@dataclass(frozen=True)
class DivisorSubgroup:
    """Validated admissible subgroup of the divisor lattice Z^rays.

    ``basis`` is the canonical Hermite basis, so equal subgroups compare
    equal regardless of the generators they were built from.  Derived data
    (the effective cone and generators, the Cartier members, which
    ``cartier_lattice`` solves in the coordinates of ``basis``, the
    coordinates of both over ``basis``, the grading cokernel, which is the
    class group on the full lattice) is cached once per instance.
    """

    fan: Fan
    basis: tuple[Vec, ...]

    def contains(self, coeffs: Sequence[int]) -> bool:
        return self.coefficients(coeffs) is not None

    def coefficients(self, coeffs: Sequence[int]) -> Optional[Vec]:
        """Coordinates over ``basis``, unique since its rows are independent;
        on the full lattice, whose basis is the identity, the vector itself."""
        if len(coeffs) != self.fan.n_rays:
            raise ValueError("coefficient length mismatch")
        if self.is_full:
            return tuple(coeffs)
        return hermite_coefficients(self.basis, coeffs)

    @cached_property
    def is_full(self) -> bool:
        """Whether the subgroup is all of Z^rays, i.e. its Hermite basis is
        the identity."""
        return _is_identity(self.basis, self.fan.n_rays)

    @cached_property
    def effective_cone_rays(self) -> tuple[Vec, ...]:
        """Primitive extreme rays of the effective cone {c : c @ basis >= 0},
        lex-sorted.

        The rows of ``basis`` are independent, so the cone is pointed: the
        extreme rays of a face are exactly the rays on it, and for a
        primitive c the image c @ basis is the smallest member on its ray.
        The full lattice gives the unit vectors; any other subgroup takes
        one double description.
        """
        if self.is_full:
            return tuple(sorted(self.basis))
        ineqs = [tuple(row[j] for row in self.basis) for j in range(self.fan.n_rays)]
        lines, rays = polyhedra.dual_description(ineqs, len(self.basis))
        assert not lines, "coefficient cone of an independent basis is pointed"
        return rays

    @cached_property
    def effective_generators(self) -> tuple[Vec, ...]:
        """Minimal generators of the semigroup of effective members, sorted
        by (coordinate sum, lex): the unit vectors on the full lattice."""
        if self.is_full:
            return self.effective_cone_rays
        return hilbert_basis(self.basis, self.effective_cone_rays)

    @cached_property
    def generator_coefficients(self) -> tuple[Vec, ...]:
        """Coordinates over ``basis`` of each of ``effective_generators``."""
        coords = tuple(self.coefficients(g) for g in self.effective_generators)
        assert None not in coords, "effective generators lie in the subgroup"
        return coords

    @cached_property
    def cartier_members(self) -> tuple[Vec, ...]:
        """Canonical basis of the subgroup's Cartier divisors."""
        return cartier_lattice(self.fan, self.basis)

    @cached_property
    def cartier_coefficients(self) -> tuple[Vec, ...]:
        """Coordinates over ``basis`` of each of ``cartier_members``."""
        coords = tuple(self.coefficients(c) for c in self.cartier_members)
        assert None not in coords, "Cartier members lie in the subgroup"
        return coords

    @cached_property
    def grading_cokernel(self) -> CokernelData:
        """The grading group (subgroup) / (principal divisors), in coordinates
        over ``basis``."""
        principal = [self.coefficients(p) for p in principal_basis(self.fan)]
        assert None not in principal, "admissible subgroup must contain principal divisors"
        # the principal coordinate vectors are the columns
        return CokernelData(IntMatrix(list(zip(*principal)), cols=len(principal)))


def divisor_subgroup(fan: Fan, rows: Sequence[Sequence[int]]) -> DivisorSubgroup:
    """Validate generators and build the admissible subgroup.

    Admissibility: (1) the given generators are linearly independent; (2) the
    subgroup contains all principal divisors; (3) it is generated by its
    effective members together with the principal divisors.  Violations are
    all collected into one :class:`SubgroupValidationError`.
    """
    n = fan.n_rays
    problems: list[str] = []
    clean: list[Vec] = []
    for i, row in enumerate(rows):
        v = tuple(int(x) for x in row)
        if len(v) != n:
            problems.append(
                f"generator {i} has {len(v)} coefficients, expected {n}"
            )
            continue
        clean.append(v)
    if problems:
        raise SubgroupValidationError(problems)

    # a Hermite basis has one row per rank of the generated lattice
    basis = hermite_row_basis(clean, width=n)
    if len(basis) != len(clean):
        problems.append("generators are linearly dependent")
    for j, p in enumerate(principal_basis(fan)):
        if hermite_coefficients(basis, p) is None:
            problems.append(
                f"principal divisor of character {j} is missing: {list(p)}"
            )
    if problems:
        raise SubgroupValidationError(problems)

    sub = DivisorSubgroup(fan=fan, basis=basis)
    if hermite_row_basis([*principal_basis(fan), *sub.effective_generators], width=n) != basis:
        raise SubgroupValidationError([
            "subgroup is not generated by its effective members together "
            "with the principal divisors"
        ])
    return sub


def cox_subgroup(fan: Fan) -> DivisorSubgroup:
    """The full divisor lattice Z^rays (Cox-style presentation data), not
    validated: it holds every divisor, and its unit divisors are effective.
    The unit rows are joined from constant tuples, since every lift, class
    group and Cox or Kajiwara presentation builds this subgroup afresh."""
    n = fan.n_rays
    units = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
    return DivisorSubgroup(fan=fan, basis=units)


def kajiwara_subgroup(fan: Fan) -> DivisorSubgroup:
    """The lattice of Cartier divisors (Kajiwara-style presentation data):
    the Cartier members of the Cox subgroup."""
    return divisor_subgroup(fan, cox_subgroup(fan).cartier_members)


# the subgroups named by the command line, and reserved as fan-file labels
BUILTIN_SUBGROUPS: dict[str, Callable[[Fan], DivisorSubgroup]] = {
    "cox": cox_subgroup,
    "kajiwara": kajiwara_subgroup,
}


# -- enough effective divisors ---------------------------------------------------


@dataclass(frozen=True)
class EnoughDivisorsReport:
    """Per-max-cone witnesses for the covering property of a subgroup.

    For each max cone the subgroup must contain an effective divisor whose
    support is exactly the rays outside that cone; ``witnesses[i]`` is such a
    divisor for max cone i, or None, and ``ok`` says all cones have one.
    """

    witnesses: tuple[Optional[Vec], ...]

    @property
    def ok(self) -> bool:
        return None not in self.witnesses

    @property
    def failing_cones(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.witnesses) if w is None)


def enough_divisors(sub: DivisorSubgroup) -> EnoughDivisorsReport:
    """Check the subgroup has, for every max cone, an effective member
    supported exactly on the complement of the cone's rays.

    The effective members are the images c @ basis of the pointed cone
    {c : c @ basis >= 0}.  Those vanishing on a max cone's rays form a face,
    spanned by the extreme rays whose image vanishes there; the sum of those
    rays has the largest support on the face, and the image of its primitive
    multiple is the smallest member on its ray.
    """
    basis = IntMatrix(sub.basis, cols=sub.fan.n_rays)
    rays = [(c, basis.left_apply(c)) for c in sub.effective_cone_rays]
    witnesses: list[Optional[Vec]] = []
    for cone in sub.fan.max_cones:
        total = [0] * len(sub.basis)
        for c, image in rays:
            if all(image[j] == 0 for j in cone):
                total = [t + x for t, x in zip(total, c)]
        w = basis.left_apply(primitive_vector(total))
        witnesses.append(w if all(x > 0 for j, x in enumerate(w) if j not in cone) else None)
    return EnoughDivisorsReport(witnesses=tuple(witnesses))
