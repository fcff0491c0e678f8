"""Toric isomorphism of fans, with torus-factor cancellation.

Two fans present isomorphic toric varieties exactly when a unimodular lattice
map carries one fan onto the other, matching rays to rays and max cones to
max cones.  The search fixes a maximal independent subset of the first fan's
rays, the base, and maps it into the second fan's rays one ray at a time, in
increasing ray index, so the first hit is that of lexicographic order.  A
partial map is dropped once a ray it fixes misses landing, integrally, on a ray
of its own, so a complete one is a ray bijection; it gives the lattice map
over the rationals, kept when that is integral and unimodular and carries each
max cone onto a max cone.  Cheap invariants (lattice rank, ray and max-cone
counts, max-cone sizes) run first, but only ever to reject.

Degenerate fans are never compared directly: both sides are split into a
torus factor and a non-degenerate core, and the cores are compared only when
the torus ranks agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fan import Fan, TorusFactorSplit, split_torus_factor
from .lattice import (
    IntMatrix, ResourceLimitError, Vec, determinant, matrix_rank, scaled_inverse,
)

MAX_ISO_ASSIGNMENTS = 2_000_000


@dataclass(frozen=True)
class FanIso:
    """Unimodular lattice map carrying one fan onto another.

    ``matrix`` maps the first fan's lattice to the second's (column action);
    ``ray_bijection[i]`` is the index of the image of ray i, and
    ``cone_bijection[c]`` the index of the image of max cone c.
    """

    matrix: IntMatrix
    ray_bijection: tuple[int, ...]
    cone_bijection: tuple[int, ...]


def verify_fan_iso(a: Fan, b: Fan, iso: FanIso) -> list[str]:
    """Independent soundness check of a claimed isomorphism."""
    problems = []
    if abs(determinant(iso.matrix)) != 1:
        problems.append("matrix is not unimodular")
    if sorted(iso.ray_bijection) != list(range(b.n_rays)) or a.n_rays != b.n_rays:
        problems.append("ray map is not a bijection")
    else:
        for i in range(a.n_rays):
            if iso.matrix.apply(a.rays[i]) != b.rays[iso.ray_bijection[i]]:
                problems.append(f"ray {i} does not map to its assigned ray")
    if sorted(iso.cone_bijection) != list(range(len(b.max_cones))) or len(
        a.max_cones
    ) != len(b.max_cones):
        problems.append("cone map is not a bijection")
    elif not problems:
        for c, cone in enumerate(a.max_cones):
            image = tuple(sorted(iso.ray_bijection[i] for i in cone))
            if image != b.max_cones[iso.cone_bijection[c]]:
                problems.append(f"max cone {c} does not map to its assigned cone")
    return problems


def _prefilter_reject(a: Fan, b: Fan) -> Optional[str]:
    """Isomorphism-invariant data; mismatches prove non-isomorphism."""
    if a.rank != b.rank:
        return f"lattice ranks differ: {a.rank} != {b.rank}"
    if a.n_rays != b.n_rays:
        return f"ray counts differ: {a.n_rays} != {b.n_rays}"
    if len(a.max_cones) != len(b.max_cones):
        return f"max-cone counts differ: {len(a.max_cones)} != {len(b.max_cones)}"
    if sorted(map(len, a.max_cones)) != sorted(map(len, b.max_cones)):
        return "max-cone size multisets differ"
    return None


def _independent_ray_subset(fan: Fan) -> list[int]:
    """Lex-least maximal independent subset of the rays (size = rank,
    since the fan is non-degenerate)."""
    chosen: list[int] = []
    rows: list[Vec] = []
    for i in range(fan.n_rays):
        candidate = rows + [fan.rays[i]]
        if matrix_rank(IntMatrix(candidate, cols=fan.rank)) == len(candidate):
            chosen.append(i)
            rows.append(fan.rays[i])
        if len(chosen) == fan.rank:
            break
    return chosen


def fan_isomorphic(a: Fan, b: Fan) -> Optional[FanIso]:
    """Search for a fan isomorphism; None when provably none exists.

    Depth first over the base images; only subtrees holding no isomorphism are
    pruned, so the first hit is that of lexicographic order.  Partial
    assignments tried count against ``MAX_ISO_ASSIGNMENTS``.  Both fans must be
    non-degenerate (their rays span); degenerate inputs belong to
    ``toric_isomorphism``, which cancels torus factors first.
    """
    if a.is_degenerate or b.is_degenerate:
        raise ValueError(
            "fan_isomorphic requires non-degenerate fans; "
            "use toric_isomorphism for torus-factor cancellation"
        )
    if _prefilter_reject(a, b) is not None:
        return None
    if a.rank == 0:
        iso = FanIso(
            matrix=IntMatrix((), cols=0),
            ray_bijection=(),
            cone_bijection=tuple(range(len(a.max_cones))),
        )
        return iso if not verify_fan_iso(a, b, iso) else None

    base = _independent_ray_subset(a)
    assert len(base) == a.rank
    r_mat = IntMatrix(tuple(a.rays[i] for i in base), cols=a.rank).T
    det_r = determinant(r_mat)
    assert det_r != 0
    adj_r = scaled_inverse(r_mat, det_r)  # adj(R) = det(R) R^-1
    # ray = R c / det(R) with c = adj(R) ray: its image is fixed once base rays
    # 0..k have images, k the last nonzero position of c
    fixed_at: list[list[tuple[int, Vec]]] = [[] for _ in base]
    for i in range(a.n_rays):
        if i not in base:
            c = adj_r.apply(a.rays[i])
            fixed_at[max(t for t, x in enumerate(c) if x)].append((i, c))
    # det(R) times each ray of b: sum c_t w_t is a key exactly when its image is
    scaled = {tuple(det_r * x for x in ray): j for j, ray in enumerate(b.rays)}
    images: list[Vec] = []  # of base rays 0..depth-1
    used: set[int] = set()  # indices of the rays of b that are images so far
    # ray_map[i] is the image of ray i of a, set once the search fixes it;
    # a complete assignment has set every entry along its own path
    ray_map = [0] * a.n_rays
    tried = 0

    def extend(depth: int) -> Optional[FanIso]:
        nonlocal tried
        for j in range(b.n_rays):
            if j in used:
                continue
            tried += 1
            if tried > MAX_ISO_ASSIGNMENTS:
                raise ResourceLimitError(
                    f"isomorphism search tried {tried} ray assignments "
                    f"(limit {MAX_ISO_ASSIGNMENTS}): MAX_ISO_ASSIGNMENTS = "
                    f"{MAX_ISO_ASSIGNMENTS} in toriclift.isomorphism, no flag overrides it"
                )
            images.append(b.rays[j])
            ray_map[base[depth]] = j
            placed = [j]
            # an isomorphism maps each ray now fixed to its own ray of b
            for i, c in fixed_at[depth]:
                num = (sum(ct * w[x] for ct, w in zip(c, images)) for x in range(b.rank))
                k = scaled.get(tuple(num))
                if k is None or k in used or k in placed:
                    break
                ray_map[i] = k
                placed.append(k)
            else:
                used.update(placed)
                if depth + 1 < a.rank:
                    iso = extend(depth + 1)
                else:
                    iso = _full_assignment(a, b, images, adj_r, det_r, ray_map)
                if iso is not None:
                    return iso
                used.difference_update(placed)
            images.pop()
        return None

    iso = extend(0)
    # an explicit check, kept under python -O: callers take a found
    # isomorphism as the certificate of b's geometry
    problems = verify_fan_iso(a, b, iso) if iso is not None else []
    if problems:
        raise AssertionError(f"found isomorphism fails its verification: {'; '.join(problems)}")
    return iso


def _full_assignment(
    a: Fan, b: Fan, images: list[Vec], adj_r: IntMatrix, det_r: int, ray_map: list[int]
) -> Optional[FanIso]:
    """The isomorphism extending the search's ray bijection ``ray_map``, if
    any.  L = W R^{-1} = W adj(R) / det(R) carries each ray of a to its
    image, since the search placed every image; L must be integral and
    unimodular, and each max cone of a must map onto a max cone of b, which
    makes the cone map a bijection: the ray map is one and the counts agree."""
    num = IntMatrix(images, cols=b.rank).T @ adj_r
    if any(x % det_r for row in num for x in row):
        return None
    L = IntMatrix(tuple(tuple(x // det_r for x in row) for row in num), cols=a.rank)
    if abs(determinant(L)) != 1:
        return None
    cone_index = {cone: c for c, cone in enumerate(b.max_cones)}
    cone_map = []
    for cone in a.max_cones:
        c = cone_index.get(tuple(sorted(ray_map[i] for i in cone)))
        if c is None:
            return None
        cone_map.append(c)
    return FanIso(matrix=L, ray_bijection=tuple(ray_map), cone_bijection=tuple(cone_map))


@dataclass(frozen=True)
class IsoReport:
    """Outcome of the toric isomorphism decision with torus cancellation."""

    isomorphic: bool
    reason: str
    splits: tuple[TorusFactorSplit, TorusFactorSplit]
    iso: Optional[FanIso]  # between the reduced (non-degenerate) fans

    @property
    def torus_ranks(self) -> tuple[int, int]:
        """The torus factor ranks of the two fans."""
        return (self.splits[0].torus_rank, self.splits[1].torus_rank)


def toric_isomorphism(a: Fan, b: Fan) -> IsoReport:
    """Decide isomorphism of the presented varieties, degenerate fans allowed.

    Torus factors are split off both sides; the varieties are isomorphic
    exactly when the torus ranks agree and the reduced fans are isomorphic.

    Of ``b`` the decision reads only the rays, the max cones and the torus
    split, never the cone geometry, so ``b`` needs only
    ``fan.canonical_fan``.  A ``yes`` has passed :func:`verify_fan_iso` on
    the reduced fans: a unimodular map carries the rays and max cones of
    one onto the other's.  A unimodular map preserves every fan axiom
    (Cox-Little-Schenck, *Toric Varieties*, 3.3), and the split is a
    lattice isomorphism of each fan's ray span onto its reduced lattice,
    so when ``a`` is a valid fan a ``yes`` certifies ``b`` as one.
    """
    sa = split_torus_factor(a)
    sb = split_torus_factor(b)
    if sa.torus_rank != sb.torus_rank:
        return IsoReport(
            isomorphic=False,
            reason=f"torus factor ranks differ: {sa.torus_rank} != {sb.torus_rank}",
            splits=(sa, sb),
            iso=None,
        )
    iso = fan_isomorphic(sa.reduced_fan, sb.reduced_fan)
    if iso is None:
        return IsoReport(
            isomorphic=False,
            reason="reduced fans are not isomorphic",
            splits=(sa, sb),
            iso=None,
        )
    return IsoReport(
        isomorphic=True,
        reason="reduced fans are isomorphic and torus ranks agree",
        splits=(sa, sb),
        iso=iso,
    )
