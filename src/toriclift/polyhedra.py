"""Exact double-description for rational polyhedral cones.

A cone is handled in two shapes:

* H-shape: {x : <a, x> >= 0 for the listed normals a}, possibly with
  equations (handled as pairs of opposite inequalities);
* V-shape: span(lines) + cone(rays).

``dual_description`` converts H to V; ``facet_description`` converts V to H
by dualizing (the dual cone of cone(G) is an H-cone with normals G).  All
arithmetic is integer: generators are kept primitive, so results are
canonical up to the documented sorting.

The incremental algorithm is the standard one: start from the full space
(lineality = standard basis), add one halfspace at a time.  While lineality
remains, a halfspace either is implied or converts one line into a ray and
projects everything else onto the hyperplane.  Once pointed (relative to the
remaining lineality), rays are split into positive/zero/negative sides and
adjacent +/- pairs combine into new boundary rays; adjacency uses the usual
combinatorial zero-set test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lattice import (
    Vec,
    primitive_vector,
    vec_dot,
    vec_is_zero,
    vec_scale,
    vec_sub,
)


def _canonical_line(v: Vec) -> Vec:
    v = primitive_vector(v)
    lead = next((x for x in v if x != 0), 0)
    return vec_scale(-1, v) if lead < 0 else v


def dual_description(
    normals: Sequence[Sequence[int]], dim: int
) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Generators (lines, rays) of {x in Q^dim : <a, x> >= 0 for a in normals}.

    Lines form a lattice basis of the lineality space; rays are the extreme
    rays modulo lineality, primitive and lex-sorted.
    """
    normals = [tuple(map(int, a)) for a in normals]
    for a in normals:
        if len(a) != dim:
            raise ValueError("normal of wrong dimension")
    lines: list[Vec] = [
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[Vec] = []
    # zero sets: per ray, the set of processed constraint indices it satisfies
    # with equality.  Lines satisfy every processed constraint with equality.
    zero_sets: list[set[int]] = []
    processed: list[int] = []

    for idx, a in enumerate(normals):
        if vec_is_zero(a):
            continue
        line_vals = [vec_dot(a, l) for l in lines]
        pivot = next((i for i, v in enumerate(line_vals) if v != 0), None)
        if pivot is not None:
            l0 = lines.pop(pivot)
            v0 = line_vals.pop(pivot)
            if v0 < 0:
                l0 = vec_scale(-1, l0)
                v0 = -v0
            new_lines = []
            for l, v in zip(lines, line_vals):
                nl = vec_sub(vec_scale(v0, l), vec_scale(v, l0))
                new_lines.append(primitive_vector(nl))
            lines = new_lines
            new_rays = []
            for r in rays:
                vr = vec_dot(a, r)
                nr = vec_sub(vec_scale(v0, r), vec_scale(vr, l0))
                new_rays.append(primitive_vector(nr))
            rays = new_rays
            # previous zero sets survive projection along a line direction
            rays.append(l0)
            zero_sets.append(set(processed))
            processed.append(idx)
            for z in zero_sets[:-1]:
                z.add(idx)
            continue
        # all lines orthogonal to a: split rays
        vals = [vec_dot(a, r) for r in rays]
        keep_idx = [i for i, v in enumerate(vals) if v >= 0]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[Vec] = []
        new_zero: list[set[int]] = []
        for i in keep_idx:
            new_rays.append(rays[i])
            z = set(zero_sets[i])
            if vals[i] == 0:
                z.add(idx)
            new_zero.append(z)
        for ip in pos:
            for im in neg:
                common = zero_sets[ip] & zero_sets[im]
                adjacent = True
                for k, z in enumerate(zero_sets):
                    if k in (ip, im):
                        continue
                    if common <= z:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                comb = vec_sub(
                    vec_scale(vals[ip], rays[im]), vec_scale(vals[im], rays[ip])
                )
                comb = primitive_vector(comb)
                if vec_is_zero(comb):
                    continue
                new_rays.append(comb)
                new_zero.append((common | {idx}))
        rays = new_rays
        zero_sets = new_zero
        processed.append(idx)

    order = sorted(range(len(rays)), key=lambda i: rays[i])
    rays = [rays[i] for i in order]
    lines = sorted(_canonical_line(l) for l in lines if not vec_is_zero(l))
    return tuple(lines), tuple(rays)


@dataclass(frozen=True)
class HRep:
    """H-description of a cone: equations (vanish) and facet inequalities."""

    equations: tuple[Vec, ...]
    inequalities: tuple[Vec, ...]

    def contains(self, v: Sequence[int]) -> bool:
        return all(vec_dot(e, v) == 0 for e in self.equations) and all(
            vec_dot(u, v) >= 0 for u in self.inequalities
        )


def facet_description(generators: Sequence[Sequence[int]], dim: int) -> HRep:
    """H-description of cone(generators) (no lineality in the input cone).

    The dual cone {u : <u, g> >= 0} is computed by double description; its
    lineality spans the orthogonal complement of the generators (equations)
    and its extreme rays are the facet normals.
    """
    lines, rays = dual_description(generators, dim)
    return HRep(equations=lines, inequalities=rays)

