"""Fans of strongly convex rational polyhedral cones.

A ``Fan`` is the combinatorial presentation of a toric variety: a lattice
rank, a list of primitive ray generators and a list of maximal cones given
by ray index sets.  ``validate_fan`` checks the fan axioms exactly (over the
integers/rationals, never floats) and produces a canonicalized fan: rays are
sorted lexicographically and cone index sets follow that order, so equal
fans have equal representations.  The facet description of each max cone
and its ray-facet incidences, computed by the checks, stay on the returned
fan, and every caller reads cone geometry from there.  ``canonical_fan`` is
its first part alone: the canonical fan with its geometry unchecked, which
a verified isomorphism from a valid fan certifies.

Every geometric check reads one table per max cone, its ray-facet
incidences (``Fan.cone_incidences``), which determine its face lattice
(Kaibel-Pfetsch, 2002): the smallest face holding some rays holds the rays
on every facet through them.  So a max cone lies in another iff its rays
are inside it, is strongly convex iff no listed ray lies on every facet
(the facets meet in its lineality space), and has a ray extreme iff the
facets through it hold no other listed ray.  Two max cones meet in a common
face iff a functional >= 0 on one and <= 0 on the other cuts both in the
same face (Cox-Little-Schenck, 1.2.13).  One walk over each cone's facets
through the shared rays, read from the table's masks, gives both the
smallest face holding them and the first certificate: a facet with the
other cone's remaining rays strictly below it cuts cone(shared) out of the
other cone, and cone(shared) is a face of the walked one if that smallest
face holds no other of its rays.  Then a sum of facet normals, then the
exact test by double description.

Degenerate fans (rays not spanning the ambient lattice) are legal; they
describe varieties with a torus factor, split off by ``split_torus_factor``.
The rank is guarded; the ray count is not, since every check is polynomial in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence

from . import polyhedra
from .lattice import (
    IntMatrix,
    ResourceLimitError,
    SNFDecomposition,
    Vec,
    matrix_rank,
    smith_normal_form,
    vec_dot,
)

MAX_RANK = 6


class FanValidationError(ValueError):
    """Raised when a candidate fan violates the fan axioms.

    Carries the complete list of violations, not just the first.
    """

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DegenerateFanError(ValueError):
    """Operation requires rays that span the ambient lattice.

    Callers should split off the torus factor first (``split_torus_factor``)
    and work with the reduced fan.
    """


@dataclass(frozen=True)
class Fan:
    """Validated fan.  Construct via :func:`validate_fan`.

    Immutable; per-cone data (facet descriptions, incidences, Smith forms)
    and fan invariants are computed once, on demand, as cached properties.
    """

    rank: int
    rays: tuple[Vec, ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __repr__(self) -> str:
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"

    # -- basic data ---------------------------------------------------------

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def cone_rays(self, cone: Sequence[int]) -> tuple[Vec, ...]:
        return tuple(self.rays[i] for i in cone)

    def ray_matrix(self) -> IntMatrix:
        """Rows are the ray generators (n_rays x rank)."""
        return IntMatrix(self.rays, cols=self.rank)

    @cached_property
    def span_rank(self) -> int:
        return matrix_rank(self.ray_matrix()) if self.rays else 0

    @property
    def is_degenerate(self) -> bool:
        return self.span_rank < self.rank

    # -- cone geometry ------------------------------------------------------

    @cached_property
    def cone_hreps(self) -> tuple[polyhedra.HRep, ...]:
        """Facet description of each max cone."""
        return tuple(
            polyhedra.facet_description(self.cone_rays(cone), self.rank)
            for cone in self.max_cones
        )

    @cached_property
    def cone_snfs(self) -> tuple[SNFDecomposition, ...]:
        """Smith decomposition of each max cone's ray matrix (rays as rows):
        local characters on the cone solve against it."""
        return tuple(
            smith_normal_form(IntMatrix(self.cone_rays(cone), cols=self.rank))
            for cone in self.max_cones
        )

    @cached_property
    def cone_masks(self) -> tuple[int, ...]:
        """Bitmask of each max cone's rays (bit i for ray i)."""
        return tuple(_mask(cone) for cone in self.max_cones)

    @cached_property
    def cone_incidences(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
        """Per max cone, bitmasks over the fan's rays (bit i for ray i): the
        rays inside the cone, and per facet inequality w those on w's
        hyperplane and those strictly below it (w . ray < 0), both read from
        one pass of w's values over the rays."""
        rays = self.rays
        bits = [1 << i for i in range(len(rays))]
        every = (1 << len(rays)) - 1
        incidences = []
        for h in self.cone_hreps:
            off, on, below = 0, [], []
            for e in h.equations:
                for r, bit in zip(rays, bits):
                    if sum(map(mul, e, r)):
                        off |= bit
            for w in h.inequalities:
                f = b = 0
                for r, bit in zip(rays, bits):
                    v = sum(map(mul, w, r))
                    if not v:
                        f |= bit
                    elif v < 0:
                        b |= bit
                on.append(f)
                below.append(b)
                off |= b
            incidences.append((every & ~off, tuple(on), tuple(below)))
        return tuple(incidences)

    def locate(self, point: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Rays of the minimal cone of the fan containing the point, or None
        if no cone holds it.

        That cone is the face of the first max cone holding the point cut out
        by the facets tight on it.
        """
        if len(point) != self.rank:
            raise ValueError("point of wrong rank")
        for ci, h in enumerate(self.cone_hreps):
            if h.contains(point):
                face, facets, _ = self.cone_incidences[ci]
                for u, f in zip(h.inequalities, facets):
                    if vec_dot(u, point) == 0:
                        face &= f
                return tuple(i for i in self.max_cones[ci] if face >> i & 1)
        return None if any(point) else ()

    # -- invariants ---------------------------------------------------------

    @cached_property
    def is_simplicial(self) -> bool:
        """Every max cone's rays are linearly independent."""
        return all(snf.rank == len(cone) for snf, cone in zip(self.cone_snfs, self.max_cones))

    @cached_property
    def is_smooth(self) -> bool:
        """Every max cone's rays are part of a lattice basis."""
        return all(
            _is_basis_part(snf, len(cone)) for snf, cone in zip(self.cone_snfs, self.max_cones)
        )


def _is_basis_part(snf: SNFDecomposition, n_rays: int) -> bool:
    """Whether the ``n_rays`` rows of the Smith-decomposed matrix are part of
    a lattice basis: independent, with every invariant factor 1."""
    return snf.invariant_factors == (1,) * n_rays


@dataclass(frozen=True)
class TorusFactorSplit:
    """Result of splitting off the torus factor of a (possibly degenerate) fan.

    ``change_of_basis`` is unimodular; applied to an original ray (column
    action) it yields the corresponding reduced ray padded with
    ``torus_rank`` trailing zeros.  ``ray_map[i]`` is the index in
    ``reduced_fan.rays`` of the image of original ray ``i``.
    """

    reduced_fan: Fan
    torus_rank: int
    change_of_basis: IntMatrix
    ray_map: tuple[int, ...]


def split_torus_factor(fan: Fan) -> TorusFactorSplit:
    rank = fan.rank
    if fan.n_rays == 0:
        return TorusFactorSplit(
            reduced_fan=Fan(0, (), ()),
            torus_rank=rank,
            change_of_basis=IntMatrix.identity(rank),
            ray_map=(),
        )
    # Columns are rays; U from the Smith reduction maps the ray span onto the
    # first span_rank coordinates.
    R = fan.ray_matrix().T
    snf = smith_normal_form(R)
    s = snf.rank
    U = snf.U
    reduced_rays = []
    for ray in fan.rays:
        img = U.apply(ray)
        assert all(x == 0 for x in img[s:]), "span reduction failed"
        reduced_rays.append(img[:s])
    # On the ray span U is a lattice isomorphism onto Z^s, so the images
    # satisfy the fan axioms already; only the canonical order is redone.
    rays, cones, ray_map = _canonical_order(reduced_rays, fan.max_cones)
    return TorusFactorSplit(
        reduced_fan=Fan(s, rays, cones),
        torus_rank=rank - s,
        change_of_basis=U,
        ray_map=ray_map,
    )


def _canonical_order(
    rays: Sequence[Vec], cones: Sequence[Sequence[int]]
) -> tuple[tuple[Vec, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Lex-sorted rays, the cones re-indexed to them (each sorted, the list
    sorted, repeats kept), and the new index of every given ray."""
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    position = [0] * len(rays)
    for new, old in enumerate(order):
        position[old] = new
    canon_cones = sorted(tuple(sorted(position[i] for i in cone)) for cone in cones)
    return tuple(rays[i] for i in order), tuple(canon_cones), tuple(position)


def _mask(indices: Iterable[int]) -> int:
    return sum([1 << i for i in indices])


def _smallest_face(incidence: tuple[int, tuple[int, ...], tuple[int, ...]], rays: int) -> int:
    """Rays of the smallest face of a max cone holding the rays in mask
    ``rays``, all inside it: those on every facet through them."""
    face, facets, _ = incidence
    for f in facets:
        if rays & ~f == 0:
            face &= f
    return face


def _meet_in_common_face(fan: Fan, a: int, b: int) -> bool:
    """Whether max cones ``a`` and ``b`` of ``fan``, strongly convex and
    neither inside the other, meet in a face of both.

    With F the shared rays, one walk over the facets of a, then one over the
    facets of b, gives both the smallest face of that cone holding F (the
    rays on every facet through F) and the one-facet certificate, the
    separation lemma (Cox-Little-Schenck, *Toric Varieties*, 1.2.13) with a
    facet inequality w through F: if cone(F) is a face of that cone (its
    smallest face holding F holds no other ray of it) and w is negative on
    the other cone's remaining rays, w >= 0 on the one gives a ∩ b ⊆ cone(F),
    the face of the other cut out by w.  On the sides where cone(F) is a
    face, a sum of facet normals is tried next (:func:`_separates`).  Only
    when neither certifies the pair, the exact test: u, the sum of the
    extreme rays of {u : u >= 0 on a, u <= 0 on b}, lies in the relative
    interior of the separating functionals, and the pair meets in a common
    face iff the rays of a and of b on u's hyperplane are the same, so in
    both cones.
    """
    masks = fan.cone_masks
    shared = masks[a] & masks[b]
    sides = []
    for x, y in ((a, b), (b, a)):
        face, on, below = fan.cone_incidences[x]
        rest = masks[y] & ~shared
        certified = False
        for f, w in zip(on, below):
            if not shared & ~f:
                face &= f
                if not rest & ~w:
                    certified = True
        if face & masks[x] == shared:
            if certified:
                return True
            sides.append((x, y))
    if any(_separates(fan, x, y, shared) for x, y in sides):
        return True
    ca, cb = fan.max_cones[a], fan.max_cones[b]
    normals = [fan.rays[i] for i in ca] + [tuple(-x for x in fan.rays[i]) for i in cb]
    _, qrays = polyhedra.dual_description(normals, fan.rank)
    u = tuple(sum(q[j] for q in qrays) for j in range(fan.rank))
    ta = {i for i in ca if vec_dot(u, fan.rays[i]) == 0}
    tb = {i for i in cb if vec_dot(u, fan.rays[i]) == 0}
    return ta == tb


def _separates(fan: Fan, a: int, b: int, shared: int) -> bool:
    """The separation lemma with the sum of max cone ``a``'s facet normals
    through F, the rays in mask ``shared``, where cone(F) is a face of a.

    That sum u vanishes on a's rays exactly at F, the rays of that face, so
    a meets u's hyperplane in cone(F); if also u < 0 on b's other rays, b
    meets it in cone(F) too, and a and b meet in cone(F), a face of both.
    False says only that this u does not certify the pair.
    """
    _, facets, _ = fan.cone_incidences[a]
    through = [w for w, f in zip(fan.cone_hreps[a].inequalities, facets) if not shared & ~f]
    u = [sum(c) for c in zip(*through)]
    for i in fan.max_cones[b]:
        if not shared >> i & 1 and sum(map(mul, u, fan.rays[i])) >= 0:
            return False
    return True


def validate_fan(
    rank: int,
    rays: Sequence[Sequence[int]],
    max_cones: Sequence[Sequence[int]],
) -> Fan:
    """Check the fan axioms and return the canonicalized fan.

    Raises :class:`FanValidationError` carrying every detected violation, or
    :class:`ResourceLimitError` when the rank exceeds ``MAX_RANK`` or a
    double description its guard (``polyhedra.MAX_DESCRIPTION_PAIRS``).

    Checks: primitive distinct nonzero rays; well-formed cone index sets;
    every ray in some maximal cone; each maximal cone strongly convex with
    every listed ray extreme; no maximal cone contained in another; every
    pairwise intersection of maximal cones is a common face of both.

    Two parts: :func:`canonical_fan` runs the rank guard and the checks that
    need no geometry and builds the canonical fan, then
    :func:`_check_geometry` checks its cones.  Each max cone costs one
    double description, its facet description, from which every geometric
    check reads the cone's ray-facet incidences; a pair of max cones costs
    another only when neither one facet of either cone nor a sum of its
    facet normals certifies it (:func:`_meet_in_common_face`).
    """
    fan, problems = canonical_fan(rank, rays, max_cones)
    _check_geometry(fan, problems)
    return fan


def canonical_fan(
    rank: int,
    rays: Sequence[Sequence[int]],
    max_cones: Sequence[Sequence[int]],
) -> tuple[Fan, list[str]]:
    """The part of :func:`validate_fan` that needs no cone geometry: the
    canonical fan, which ``validate_fan`` returns when the fan is valid, and
    the problems found on it, a max cone listed twice or a ray in no max
    cone, while its geometry is left unchecked.

    Raises what ``validate_fan`` raises before its geometric checks: the
    rank guard, and :class:`FanValidationError` for a malformed ray or cone
    index set.  A fan carried onto this one by a verified isomorphism
    certifies its geometry (``isomorphism.toric_isomorphism``); otherwise
    only ``validate_fan`` does.
    """
    if rank < 0:
        raise FanValidationError(["rank must be nonnegative"])
    if rank > MAX_RANK:
        raise ResourceLimitError(
            f"rank {rank} exceeds guard {MAX_RANK}: MAX_RANK = {MAX_RANK} in "
            f"toriclift.fan, no flag overrides it"
        )

    problems: list[str] = []
    clean_rays: list[Vec] = []
    for i, ray in enumerate(rays):
        v = tuple(map(int, ray))
        if len(v) != rank:
            problems.append(f"ray {i} has {len(v)} coordinates, expected {rank}")
            continue
        if not any(v):
            problems.append(f"ray {i} is zero")
            continue
        if gcd(*v) != 1:
            problems.append(f"ray {i} = {list(v)} is not primitive")
            continue
        clean_rays.append(v)
    structural_ok = len(clean_rays) == len(rays)
    if structural_ok:
        seen: dict[Vec, int] = {}
        for i, v in enumerate(clean_rays):
            if v in seen:
                problems.append(f"ray {i} duplicates ray {seen[v]}")
                structural_ok = False
            else:
                seen[v] = i

    cones: list[tuple[int, ...]] = []
    n = len(rays)
    for ci, cone in enumerate(max_cones):
        idx = [int(i) for i in cone]
        if not idx:
            problems.append(f"max cone {ci} is empty")
            structural_ok = False
            continue
        bad = [i for i in idx if not 0 <= i < n]
        if bad:
            problems.append(f"max cone {ci} references unknown rays {bad}")
            structural_ok = False
            continue
        if len(set(idx)) != len(idx):
            problems.append(f"max cone {ci} lists a ray twice")
            structural_ok = False
            continue
        cones.append(tuple(sorted(idx)))

    if not structural_ok:
        raise FanValidationError(problems)

    canon_rays, canon_cones, _ = _canonical_order(clean_rays, cones)
    dup = {c for c in canon_cones if canon_cones.count(c) > 1}
    for c in dup:
        problems.append(f"max cone {list(c)} listed more than once")
    canon_cones = sorted(set(canon_cones))

    covered = {i for cone in canon_cones for i in cone}
    for i in range(n):
        if i not in covered:
            problems.append(f"ray {i} = {list(canon_rays[i])} lies in no max cone")

    return Fan(rank=rank, rays=canon_rays, max_cones=tuple(canon_cones)), problems


def _check_geometry(fan: Fan, problems: list[str]) -> None:
    """The geometric part of :func:`validate_fan` on a canonical fan: strong
    convexity and extreme rays per max cone, then containment and common
    faces per pair.  Raises :class:`FanValidationError` with ``problems``,
    those :func:`canonical_fan` found, followed by the geometric ones."""
    rays, cones = fan.rays, fan.max_cones
    masks = fan.cone_masks
    table = fan.cone_incidences
    for cone, mask, incidence in zip(cones, masks, table):
        if _smallest_face(incidence, 0) & mask:
            problems.append(f"max cone {list(cone)} is not strongly convex (contains a line)")
            continue
        for i in cone:
            if _smallest_face(incidence, 1 << i) & mask != 1 << i:
                problems.append(
                    f"ray {i} = {list(rays[i])} is not an extreme ray of max cone {list(cone)}"
                )

    if problems:
        raise FanValidationError(problems)

    inside = [incidence[0] for incidence in table]
    for a in range(len(cones)):
        for b in range(a + 1, len(cones)):
            if not (masks[a] & ~inside[b] and masks[b] & ~inside[a]):
                for x, y in ((a, b), (b, a)):
                    if not masks[x] & ~inside[y]:
                        problems.append(
                            f"max cone {list(cones[x])} is contained in max cone {list(cones[y])}"
                        )
            elif not _meet_in_common_face(fan, a, b):
                problems.append(
                    f"intersection of max cones {list(cones[a])} and {list(cones[b])} "
                    f"is not a common face"
                )

    if problems:
        raise FanValidationError(problems)
