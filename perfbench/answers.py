"""Known answers: one hand-written entry per question class.

Each entry names where its answer comes from:

* ``construction`` - the question was built so that the answer is forced;
* ``criterion``    - a criterion from the paper or standard toric geometry;
* ``oracle``       - a brute-force enumeration independent of toriclift
  (the same method as ``tests/oracles.py``: enumerate the lattice points of a
  box that provably holds the answer, then sieve), run once when the table
  was written; the counts do not depend on the seed because conjugation is a
  lattice automorphism.

A checker returns the list of problems with one report; an empty list means
the answer is right.  Every workload question expects exit code 0 (answers
"yes", "no" and "valid: no" all exit 0); exit code 2 would be a guard trip or
an undecided search, which no workload question should produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable

from corpus import Shape, apply, determinant


@dataclass(frozen=True)
class Entry:
    source: str  # construction | criterion | oracle
    reason: str
    check: Callable


def fields(out: str) -> dict[str, str]:
    """First value of every ``key: value`` line of a report."""
    found: dict[str, str] = {}
    for ln in out.splitlines():
        key, sep, value = ln.partition(": ")
        if sep and key not in found:
            found[key] = value
    return found


def _expect(f: dict[str, str], **want) -> list[str]:
    out = []
    for key, value in want.items():
        key = key.replace("_", " ")
        if f.get(key) != value:
            out.append(f"{key}: expected {value!r}, got {f.get(key)!r}")
    return out


# -- lift -----------------------------------------------------------------------


def _lift_yes(unique: bool):
    def check(q, f, ctx):
        out = _expect(f, exists="true")
        if unique:
            out += _expect(f, uniqueness="unique")
        return out
    return check


def _lift_no(obstruction_prefix: Callable):
    def check(q, f, ctx):
        out = _expect(f, exists="false")
        prefix = obstruction_prefix(q)
        if not f.get("obstruction", "").startswith(prefix):
            out.append(f"obstruction: expected prefix {prefix!r}, got {f.get('obstruction')!r}")
        return out
    return check


def _diamond_parity(q, f, ctx):
    # phi(D_i) = x_i >= 0 with sum x_i v_i = (a, b, h) forces
    # x0 + x1 = (h - a - b) / 2, so the lift exists iff every image has
    # h - a - b even (interior images put no support condition on x)
    if all((h - a - b) % 2 == 0 for a, b, h in q.facts["images"]):
        return _expect(f, exists="true")
    return _lift_no(lambda q: "2 * phi(")(q, f, ctx)


# -- iso --------------------------------------------------------------------------


def _torus_rank(s: Shape) -> int:
    return s.rank - _rank(s.rays)


def _rank(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _reduced(shape: Shape, split_out: str) -> tuple[int, list, list] | str:
    """Rays and cones of ``shape`` in the reduced coordinates that the
    ``split`` report states, after checking that its change of basis is
    unimodular and really kills the torus coordinates."""
    f = fields(split_out)
    u = json.loads(f["change of basis"])
    s = int(f["reduced rank"])
    if abs(determinant(u)) != 1:
        return "split change of basis is not unimodular"
    rays = [apply(u, r) for r in shape.rays]
    if any(any(x != 0 for x in r[s:]) for r in rays):
        return "split change of basis leaves a torus coordinate nonzero"
    rays = [r[:s] for r in rays]
    cones = {frozenset(rays[i] for i in c) for c in shape.cones}
    return s, rays, cones


def _iso_yes(q, f, ctx):
    t = _torus_rank(q.facts["first"])
    out = _expect(f, isomorphic="yes", torus_factor_ranks=f"{t} {t}")
    if out:
        return out
    # the returned matrix maps the first reduced fan onto the second: apply
    # it to the rays and compare ray sets and cone sets
    ra = _reduced(q.facts["first"], ctx.split(q.argv[1]))
    rb = _reduced(q.facts["second"], ctx.split(q.argv[2]))
    for r in (ra, rb):
        if isinstance(r, str):
            return [r]
    (s, rays_a, cones_a), (_, rays_b, cones_b) = ra, rb
    m = json.loads(f["matrix"]) if s else []
    if s and abs(determinant(m)) != 1:
        return ["iso matrix is not unimodular"]
    image = {r: apply(m, r) if s else () for r in rays_a}
    if set(image.values()) != set(rays_b):
        return ["iso matrix does not carry the first ray set onto the second"]
    if {frozenset(image[r] for r in c) for c in cones_a} != cones_b:
        return ["iso matrix does not carry the first cones onto the second"]
    return []


# -- present ----------------------------------------------------------------------

# class groups: Cl = Z^(rays - rank) plus N / (ray span) as torsion, for fans
# whose rays span N over Q (criterion); the ray spans were worked out by hand
CLASS_GROUP = {
    "smooth": lambda s: _free(len(s.rays) - s.rank),
    "wps": lambda s: "Z",  # q0 = 1, so the rays contain a basis of N
    "quadric": lambda s: f"Z/{_a_index(s)}",  # (1,0), (1,k) span an index-k sublattice
    "diamond": lambda s: "Z ⊕ Z/2",  # rays span {a + b + c even}, index 2
    "square": lambda s: "Z",  # rays span Z^3
    "cube": lambda s: "Z^5 ⊕ Z/2 ⊕ Z/2",  # rays span {all coordinates of equal parity}
}

# Kajiwara (Cartier) coordinates of the singular fans: oracle counts
KAJIWARA_COORDINATES = {
    "P(1,1,2)": 4, "P(1,2,3)": 7, "P(1,2,3,5)": 247, "P(1,1,2,3)": 23,
    "A1": 3, "A2": 3, "A3": 3, "A5": 3, "diamond": 9, "square": 4, "cube": 7,
}
# Pic = Cartier / principal: free of rank (Cartier rank - lattice rank) on a
# complete fan, 0 on an affine one; Cartier ranks from the same enumeration
PICARD = {"wps": "Z", "quadric": "0", "diamond": "0", "square": "0", "cube": "Z"}


def _free(r: int) -> str:
    return "0" if r == 0 else "Z" if r == 1 else f"Z^{r}"


def _a_index(s: Shape) -> int:
    return abs(int(determinant([list(r) for r in s.rays])))


def _kind(q) -> str:
    kind = q.facts["kind"]
    return q.facts["name"] if kind == "nonsimplicial" else kind


@lru_cache(maxsize=None)
def primitive_collections(s: Shape) -> int:
    """Number of inclusion-minimal ray sets contained in no max cone."""
    cones = [frozenset(c) for c in s.cones]
    n = len(s.rays)

    def face(subset) -> bool:
        return any(subset <= c for c in cones)

    count = 0
    # every proper subset of a minimal non-face is a face: at most max cone + 1 rays
    for size in range(1, min(n, max(map(len, cones)) + 1) + 1):
        for combo in combinations(range(n), size):
            sub = frozenset(combo)
            if not face(sub) and all(face(sub - {i}) for i in sub):
                count += 1
    return count


def _validate(q, f, ctx):
    s: Shape = q.facts["shape"]
    if q.facts["kind"] == "invalid":
        out = _expect(f, valid="no")
        if "problem" not in f:
            out.append("invalid fan reported without a problem line")
        return out
    return _expect(f, valid="yes", rank=str(s.rank), rays=str(len(s.rays)),
                   max_cones=str(len(set(map(frozenset, s.cones)))))


def _invariants(q, f, ctx):
    s, kind = q.facts["shape"], q.facts["kind"]
    simplicial = "no" if kind == "nonsimplicial" else "yes"
    smooth = "yes" if kind == "smooth" else "no"
    return _expect(f, class_group=CLASS_GROUP[_kind(q)](s), simplicial=simplicial,
                   smooth=smooth, degenerate="no", torus_factor_rank="0")


def _cox(q, f, ctx):
    s = q.facts["shape"]
    return _expect(f, mode="cox", coordinates=str(len(s.rays)),
                   grading_group=CLASS_GROUP[_kind(q)](s), enough_divisors="yes",
                   exceptional_collections=str(primitive_collections(s)))


def _kajiwara(q, f, ctx):
    s, kind = q.facts["shape"], q.facts["kind"]
    if kind == "smooth":  # every divisor is Cartier: same as Cox
        return _expect(f, mode="kajiwara", coordinates=str(len(s.rays)),
                       grading_group=CLASS_GROUP["smooth"](s), enough_divisors="yes",
                       exceptional_collections=str(primitive_collections(s)))
    return _expect(f, mode="kajiwara", coordinates=str(KAJIWARA_COORDINATES[q.facts["name"]]),
                   grading_group=PICARD[_kind(q)],
                   enough_divisors="yes")


def _subgroup(q, f, ctx):
    s, sub = q.facts["shape"], q.facts["subgroup"]
    if sub == "full":  # the unit vectors: the Cox subgroup under another name
        want = dict(coordinates=str(len(s.rays)), grading_group=CLASS_GROUP["smooth"](s),
                    exceptional_collections=str(primitive_collections(s)))
    elif sub == "even":  # a + b even on each P^1 factor: (2,0), (1,1), (0,2) each
        r = s.rank
        want = dict(coordinates=str(3 * r), grading_group=_free(r),
                    exceptional_collections=str(r))
    else:  # "half" on A_{k-1}: a = b mod 2, graded by Z/(k/2)
        want = dict(coordinates="3", grading_group=f"Z/{_a_index(s) // 2}",
                    exceptional_collections="0")
    return _expect(f, mode=f"subgroup {sub}", enough_divisors="yes", **want)


TABLE: dict[str, Entry] = {
    "lift.cox_identity": Entry(
        "construction", "the identity of Z^rays lifts the identity morphism; all divisors of a "
        "smooth target are Cartier, so the lift is unique", _lift_yes(True)),
    "lift.blowdown": Entry(
        "criterion", "smooth target: the Cox subgroup is the Cartier lattice, so the pullback "
        "of Cartier divisors lifts, uniquely (strict transform)", _lift_yes(True)),
    "lift.quadric_cox": Entry(
        "construction", "resolution of the A_{k-1} cone: k * phi(D_1) = (0, 1, ..., k) has no "
        "integral solution", _lift_no(lambda q: f"{q.facts['k']} * phi(")),
    "lift.quadric_subgroup": Entry(
        "construction", "target subgroup principal + 2 D_1: (k/2) * phi(2 D_1) = (0, 1, ..., k) "
        "has no integral solution for k >= 4", _lift_no(lambda q: f"{q.facts['k'] // 2} * phi(")),
    "lift.kajiwara_identity": Entry(
        "construction", "phi is the identity on the finite-index Cartier lattice, hence "
        "everywhere; a non-Cartier D_i is not in the Kajiwara source subgroup",
        _lift_no(lambda q: "pullback of basis divisor(s)")),
    "lift.nonsimplicial_identity": Entry(
        "construction", "the identity of Z^rays lifts the identity morphism and is effective",
        _lift_yes(True)),
    "lift.line_diamond": Entry(
        "criterion", "diamond cone: sum x_i v_i = (a, b, h) with x >= 0 integral has a "
        "solution iff h - a - b is even (hand computation, agrees with tests/test_lifting.py)",
        _diamond_parity),
    "lift.plane_diamond": Entry(
        "criterion", "the line criterion applied to each source ray independently", _diamond_parity),
    "lift.line_square": Entry(
        "criterion", "the cone over the unit square is normal: every lattice point is a "
        "nonnegative integral combination of its rays", _lift_yes(False)),
    "lift.plane_square": Entry(
        "criterion", "the line criterion applied to each source ray independently", _lift_yes(False)),
    "iso.conjugate": Entry(
        "construction", "the second fan is the first under a unimodular map; the returned matrix "
        "is checked by applying it to the rays and cones", _iso_yes),
    "iso.hirzebruch_distinct": Entry(
        "criterion", "(P^1)^k x F_a and (P^1)^k x F_b are not isomorphic for a != b: the primitive "
        "relations (u + v = 0 per P^1, u + w = a v in F_a) are fan invariants",
        lambda q, f, ctx: _expect(f, isomorphic="no", reason="reduced fans are not isomorphic")),
    "present.validate": Entry(
        "construction", "catalogue fans are valid by construction; the invalid ones break one "
        "fan axiom each", _validate),
    "present.invariants": Entry(
        "criterion", "Cl = Z^(rays - rank) + N/(ray span) for fans spanning N over Q", _invariants),
    "present.cox": Entry(
        "criterion", "Cox coordinates are the rays; exceptional collections are the primitive "
        "collections; the complement divisor of each cone is in Z^rays", _cox),
    "present.kajiwara": Entry(
        "oracle", "smooth: equal to Cox; singular: Cartier Hilbert basis sizes by brute-force "
        "enumeration, Pic from the Cartier rank", _kajiwara),
    "present.subgroup": Entry(
        "construction", "declared subgroups with hand-computed Hilbert bases and gradings", _subgroup),
    "probe.yes": Entry(
        "construction", "see the probe comments in corpus.py", _lift_yes(False)),
}


def check(q, code: int, out: str, ctx) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    return TABLE[q.klass].check(q, fields(out), ctx)
