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
combinatorial zero-set test.  That pair loop is the exponential step (the
rays kept can grow like n^(d/2), McMullen), so it alone is guarded; the line
phase keeps up to ``dim`` rays and tests no pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Sequence

from .lattice import ResourceLimitError, Vec, primitive_vector, vec_dot

MAX_DESCRIPTION_PAIRS = 20_000


def _canonical_line(v: Vec) -> Vec:
    v = primitive_vector(v)
    lead = next((x for x in v if x != 0), 0)
    return tuple([-x for x in v]) if lead < 0 else v


def dual_description(
    normals: Sequence[Sequence[int]], dim: int
) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Generators (lines, rays) of {x in Q^dim : <a, x> >= 0 for a in normals}.

    Lines form a lattice basis of the lineality space; rays are the extreme
    rays modulo lineality, primitive and lex-sorted.  A step that would test
    more than MAX_DESCRIPTION_PAIRS +/- ray pairs raises ResourceLimitError.
    """
    normals = [tuple(map(int, a)) for a in normals]
    for a in normals:
        if len(a) != dim:
            raise ValueError("normal of wrong dimension")
    lines: list[Vec] = [tuple([int(i == j) for j in range(dim)]) for i in range(dim)]
    rays: list[Vec] = []
    # zero sets: per ray, the bitmask of processed constraint indices it
    # satisfies with equality.  Lines satisfy every processed constraint with
    # equality.  Lines and rays stay primitive, so one of value 0 is its own
    # projection.
    zero_sets: list[int] = []
    processed = 0

    for idx, a in enumerate(normals):
        if not any(a):
            continue
        bit = 1 << idx
        line_vals = [sum(map(mul, a, l)) for l in lines]
        for pivot, v0 in enumerate(line_vals):
            if v0:
                break
        else:
            v0 = 0
        if v0:
            l0 = lines.pop(pivot)
            del line_vals[pivot]
            if v0 < 0:
                l0 = tuple([-x for x in l0])
                v0 = -v0
            new_lines = []
            for x, v in zip(lines, line_vals):
                if v:
                    y = [v0 * p - v * q for p, q in zip(x, l0)]
                    g = gcd(*y)
                    x = tuple([p // g for p in y]) if g > 1 else tuple(y)
                new_lines.append(x)
            lines = new_lines
            new_rays = []
            for x in rays:
                v = sum(map(mul, a, x))
                if v:
                    y = [v0 * p - v * q for p, q in zip(x, l0)]
                    g = gcd(*y)
                    x = tuple([p // g for p in y]) if g > 1 else tuple(y)
                new_rays.append(x)
            rays = new_rays
            # previous zero sets survive projection along a line direction
            rays.append(l0)
            zero_sets = [z | bit for z in zero_sets]
            zero_sets.append(processed)
            processed |= bit
            continue
        # all lines orthogonal to a: split rays
        vals = [sum(map(mul, a, r)) for r in rays]
        new_rays, new_zero, pos, neg = [], [], [], []
        for i, v in enumerate(vals):
            if v > 0:
                pos.append(i)
            elif v < 0:
                neg.append(i)
                continue
            new_rays.append(rays[i])
            new_zero.append(zero_sets[i] if v else zero_sets[i] | bit)
        pairs = len(pos) * len(neg)
        if pairs > MAX_DESCRIPTION_PAIRS:
            raise ResourceLimitError(
                f"double description would test {pairs} ray pairs, over guard "
                f"{MAX_DESCRIPTION_PAIRS}: MAX_DESCRIPTION_PAIRS = {MAX_DESCRIPTION_PAIRS} in "
                f"toriclift.polyhedra, no flag overrides it"
            )
        for ip in pos:
            zp, rp, vp = zero_sets[ip], rays[ip], vals[ip]
            for im in neg:
                common = zp & zero_sets[im]
                # rays ip and im hold common; adjacent iff no other does
                if len([z for z in zero_sets if not common & ~z]) > 2:
                    continue
                vm = vals[im]
                y = [vp * q - vm * p for p, q in zip(rp, rays[im])]
                g = gcd(*y)
                if not g:
                    continue
                new_rays.append(tuple([p // g for p in y]) if g > 1 else tuple(y))
                new_zero.append(common | bit)
        rays = new_rays
        zero_sets = new_zero
        processed |= bit

    lines = sorted(_canonical_line(l) for l in lines if any(l))
    return tuple(lines), tuple(sorted(rays))


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

