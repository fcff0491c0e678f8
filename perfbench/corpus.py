"""Seeded question corpus for the benchmark.

Every fan is built here from a named shape, conjugated by a seeded
unimodular matrix and written as a version-1 fan file; lift matrices are
transformed to match (``M' = g_target · M · g_source⁻¹``).  The program under
test only ever sees the written files and the command line.  The expected
answer of every question comes from the class table in ``answers.py``;
conjugation never changes an answer, so the table does not depend on the
seed.  Stdlib only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

Vec = tuple[int, ...]


@dataclass(frozen=True)
class Shape:
    """A fan before conjugation: rank, rays in file order, cones by index."""

    rank: int
    rays: tuple[Vec, ...]
    cones: tuple[tuple[int, ...], ...]


@dataclass
class Question:
    """One CLI question and everything needed to judge its answer."""

    qid: str
    klass: str
    argv: list[str]
    facts: dict = field(default_factory=dict)


# -- shapes -------------------------------------------------------------------


def unit(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def line() -> Shape:
    return Shape(1, ((1,),), ((0,),))


def plane() -> Shape:
    return Shape(2, ((1, 0), (0, 1)), ((0, 1),))


def p1() -> Shape:
    return Shape(1, ((1,), (-1,)), ((0,), (1,)))


def projective_space(n: int) -> Shape:
    return weighted_projective((1,) * (n + 1))


def weighted_projective(q: tuple[int, ...]) -> Shape:
    """P(q0, ..., qn) with q0 = 1: rays e_1..e_n and -(q1, ..., qn)."""
    assert q[0] == 1
    n = len(q) - 1
    rays = tuple(unit(n, i) for i in range(n)) + (tuple(-x for x in q[1:]),)
    return Shape(n, rays, tuple(combinations(range(n + 1), n)))


def hirzebruch(a: int) -> Shape:
    return Shape(2, ((1, 0), (0, 1), (-1, a), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))


def fan_product(*shapes: Shape) -> Shape:
    rank = sum(s.rank for s in shapes)
    rays: list[Vec] = []
    offsets = []
    before = 0
    for s in shapes:
        offsets.append(len(rays))
        for r in s.rays:
            rays.append((0,) * before + r + (0,) * (rank - before - s.rank))
        before += s.rank
    cones = tuple(
        tuple(off + i for off, cone in zip(offsets, parts) for i in cone)
        for parts in product(*(s.cones for s in shapes))
    )
    return Shape(rank, tuple(rays), cones)


def torus_padded(s: Shape, t: int) -> Shape:
    """The same cones in a lattice with t extra coordinates: a torus factor."""
    return Shape(s.rank + t, tuple(r + (0,) * t for r in s.rays), s.cones)


def _polygon_from_cycle(cycle: list[Vec]) -> Shape:
    n = len(cycle)
    return Shape(2, tuple(cycle), tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n)))


def polygon_cycle(n: int) -> list[Vec]:
    """Rays of a smooth complete polygon fan in angular order: P^2 blown up
    n - 3 times at torus-fixed points (insert u + v between u, v).

    The blow-up points are fixed per n, not drawn from the workload seed:
    the cost of a polygon question depends on its shape, and a seeded shape
    would move the slowest questions, and so the tail, from seed to seed."""
    rng = random.Random(f"polygon-{n}")
    cycle: list[Vec] = [(1, 0), (0, 1), (-1, -1)]
    while len(cycle) < n:
        i = rng.randrange(len(cycle))
        u, v = cycle[i], cycle[(i + 1) % len(cycle)]
        cycle.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return cycle


def polygon(n: int) -> Shape:
    return _polygon_from_cycle(polygon_cycle(n))


def blowup_pair(n: int) -> tuple[Shape, Shape]:
    """(source, target): a smooth polygon with n rays and its blow-down."""
    cycle = polygon_cycle(n - 1)
    target = _polygon_from_cycle(cycle)
    i = random.Random(f"blowup-{n}").randrange(len(cycle))
    u, v = cycle[i], cycle[(i + 1) % len(cycle)]
    cycle = cycle[: i + 1] + [(u[0] + v[0], u[1] + v[1])] + cycle[i + 1 :]
    return _polygon_from_cycle(cycle), target


def a_cone(k: int) -> Shape:
    """The affine A_{k-1} singularity: cone over (1, 0), (1, k)."""
    return Shape(2, ((1, 0), (1, k)), ((0, 1),))


def a_resolution(k: int) -> Shape:
    """Minimal resolution of ``a_cone(k)``: rays (1, i) for i = 0..k."""
    return Shape(2, tuple((1, i) for i in range(k + 1)), tuple((i, i + 1) for i in range(k)))


def diamond() -> Shape:
    return Shape(3, ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1)), ((0, 1, 2, 3),))


def square() -> Shape:
    return Shape(3, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)), ((0, 1, 2, 3),))


def cube() -> Shape:
    """Complete fan over the faces of the cube [-1, 1]^3: 8 rays, 6 cones."""
    rays = tuple(product((-1, 1), repeat=3))
    cones = tuple(
        tuple(i for i, r in enumerate(rays) if r[axis] == sign)
        for axis in range(3)
        for sign in (-1, 1)
    )
    return Shape(3, rays, cones)


INVALID = {
    # cone((1,1),(-1,0)) cuts through cone((1,0),(0,1))
    "overlap": Shape(2, ((1, 0), (0, 1), (1, 1), (-1, 0)), ((0, 1), (2, 3))),
    "line_in_cone": Shape(2, ((1, 0), (-1, 0), (0, 1)), ((0, 1, 2),)),
    "not_primitive": Shape(2, ((2, 0), (0, 1)), ((0, 1),)),
    "not_extreme": Shape(2, ((1, 0), (1, 1), (1, 2)), ((0, 1, 2),)),
    "nested_cones": Shape(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2))),
}


# -- conjugation --------------------------------------------------------------


def unimodular(rank: int, rng: random.Random) -> list[list[int]]:
    """Seeded product of elementary integer operations, det = +-1."""
    m = [list(unit(rank, i)) for i in range(rank)]
    for _ in range(3 * rank):
        i, j = rng.randrange(rank), rng.randrange(rank)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            k = rng.choice((-1, 1))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def apply(m: list[list[int]], v) -> Vec:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


def matmul(a, b) -> list[list[int]]:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def inverse(m: list[list[int]]) -> list[list[int]]:
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    out = [[row[n + j] for j in range(n)] for row in a]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def determinant(m) -> Fraction:
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def conjugate(s: Shape, g: list[list[int]]) -> Shape:
    return Shape(s.rank, tuple(apply(g, r) for r in s.rays), s.cones)


# -- files --------------------------------------------------------------------


def fan_text(s: Shape, subgroups: dict[str, list[Vec]] | None = None) -> str:
    lines = ["fan 1", f"rank {s.rank}"]
    lines += ["ray " + " ".join(map(str, r)) for r in s.rays]
    lines += ["cone " + " ".join(map(str, c)) for c in s.cones]
    for name, rows in (subgroups or {}).items():
        lines.append(f"subgroup {name}")
        lines += [" ".join(map(str, r)) for r in rows]
        lines.append("end")
    return "\n".join(lines) + "\n"


class Writer:
    """Writes each fan to its own file; no two questions share a file."""

    def __init__(self, directory: Path, rng: random.Random):
        self.directory = directory
        self.rng = rng
        self.count = 0

    def fan(self, s: Shape, subgroups=None) -> tuple[str, Shape, list[list[int]]]:
        g = unimodular(s.rank, self.rng)
        c = conjugate(s, g)
        path = self.directory / f"f{self.count:03d}.fan"
        self.count += 1
        path.write_text(fan_text(c, subgroups), encoding="utf-8")
        return str(path), c, g


def _matrix_flag(m: list[list[int]]) -> str:
    return ",".join(str(x) for row in m for x in row)


# -- workloads ----------------------------------------------------------------


def lift_questions(w: Writer) -> list[Question]:
    rng = w.rng
    out: list[Question] = []

    def lift(klass, src: Shape, dst: Shape, matrix, extra=(), facts=None, dst_subgroups=None):
        sp, _, gs = w.fan(src)
        dp, _, gt = w.fan(dst, dst_subgroups)
        m = matmul(matmul(gt, matrix), inverse(gs))
        argv = ["lift", sp, dp, "--matrix=" + _matrix_flag(m), *extra]
        out.append(Question(f"lift{len(out):03d}", klass, argv, facts or {}))

    def ident(r):
        return [list(unit(r, i)) for i in range(r)]

    for n in range(6, 15):
        s = polygon(n)
        lift("lift.cox_identity", s, s, ident(2))
    for n in range(7, 15):
        src, dst = blowup_pair(n)
        lift("lift.blowdown", src, dst, ident(2))
    for k in range(2, 8):
        lift("lift.quadric_cox", a_resolution(k), a_cone(k), ident(2), facts={"k": k})
    for k in (4, 6, 8):
        half = {"half": [(1, 1), (0, 2)]}
        lift("lift.quadric_subgroup", a_resolution(k), a_cone(k), ident(2),
             extra=("--dst-subgroup", "half"), facts={"k": k}, dst_subgroups=half)
    for q in ((1, 1, 2), (1, 2, 3), (1, 1, 1, 2), (1, 2, 3, 5), (1, 2, 2, 3)):
        s = weighted_projective(q)
        lift("lift.kajiwara_identity", s, s, ident(s.rank), extra=("--src-subgroup", "kajiwara"))
    for k in (2, 3, 5):
        lift("lift.kajiwara_identity", a_cone(k), a_cone(k), ident(2), extra=("--src-subgroup", "kajiwara"))
    for s in (cube(), diamond(), square()):
        lift("lift.nonsimplicial_identity", s, s, ident(3))
    # interior points (a, b, h) of the diamond cone: |a| + |b| < h
    interior = [(a, b, h) for h in range(2, 6) for a in range(-h, h + 1) for b in range(-h, h + 1)
                if abs(a) + abs(b) < h]
    # half of the images admit a lift (h - a - b even), at every seed
    even = [v for v in interior if (v[2] - v[0] - v[1]) % 2 == 0]
    odd = [v for v in interior if (v[2] - v[0] - v[1]) % 2]
    for v in rng.sample(even, 6) + rng.sample(odd, 6):
        lift("lift.line_diamond", line(), diamond(), [[x] for x in v], facts={"images": [v]})
    for v, u in [rng.sample(even, 2) for _ in range(4)] + [(rng.choice(even), rng.choice(odd)) for _ in range(4)]:
        lift("lift.plane_diamond", plane(), diamond(), [[x, y] for x, y in zip(v, u)],
             facts={"images": [v, u]})
    inside_square = [(a, b, h) for h in range(2, 6) for a in range(1, h) for b in range(1, h)]
    for v in rng.sample(inside_square, 4):
        lift("lift.line_square", line(), square(), [[x] for x in v])
    for _ in range(4):
        v, u = rng.sample(inside_square, 2)
        lift("lift.plane_square", plane(), square(), [[x, y] for x, y in zip(v, u)])
    return out


def iso_questions(w: Writer) -> list[Question]:
    out: list[Question] = []

    def pair(klass, a: Shape, b: Shape):
        pa, ca, _ = w.fan(a)
        pb, cb, _ = w.fan(b)
        facts = {"first": ca, "second": cb}
        out.append(Question(f"iso{len(out):03d}", klass, ["iso", pa, pb], facts))

    shapes: list[Shape] = []
    shapes += [projective_space(n) for n in range(1, 7)]
    shapes += [fan_product(*[p1()] * r) for r in range(1, 6)]
    shapes += [polygon(n) for n in range(5, 15)]
    shapes += [hirzebruch(a) for a in range(0, 6)]
    shapes += [weighted_projective(q) for q in ((1, 1, 2), (1, 2, 3), (1, 2, 3, 5), (1, 1, 2, 3))]
    shapes += [fan_product(projective_space(1), projective_space(2)),
               fan_product(projective_space(2), projective_space(2)),
               fan_product(hirzebruch(2), p1())]
    shapes += [torus_padded(projective_space(2), 1), torus_padded(hirzebruch(1), 1),
               torus_padded(polygon(8), 2), torus_padded(fan_product(p1(), p1()), 2),
               torus_padded(a_cone(3), 1)]
    # two conjugate pairs per shape, except the costly (P^1)^5
    for s in shapes + [s for s in shapes if len(s.rays) < 10 or s.rank < 5]:
        pair("iso.conjugate", s, s)
    for a, b in ((0, 2), (1, 3), (2, 4), (1, 2), (0, 1), (3, 5)):
        pair("iso.hirzebruch_distinct", hirzebruch(a), hirzebruch(b))
    # rank 3 and 4; the rank-5 pair (about 4 s, 30240 assignments) would make a
    # pass so long that a run times each question only three or four times
    for k in (1, 2):
        f1 = fan_product(*[p1()] * k, hirzebruch(1))
        f3 = fan_product(*[p1()] * k, hirzebruch(3))
        pair("iso.hirzebruch_distinct", f1, f3)
    return out


# (shape, kind, declared subgroups) for the catalogue pass
def catalogue():
    cat = []
    for n in (6, 7, 8, 9, 10, 11, 12, 14, 16):
        s = polygon(n)
        subs = {"full": [unit(n, i) for i in range(n)]} if n % 2 == 0 else None
        cat.append((f"polygon{n}", s, "smooth", subs))
    for r in range(1, 5):
        s = fan_product(*[p1()] * r)
        # principal divisors plus twice every divisor: a+b even per factor
        even = [tuple(1 if j in (2 * i, 2 * i + 1) else 0 for j in range(2 * r)) for i in range(r)]
        even += [tuple(2 if j == 2 * i else 0 for j in range(2 * r)) for i in range(r)]
        cat.append((f"p1^{r}", s, "smooth", {"even": even}))
    for n in (2, 3, 4):
        cat.append((f"P{n}", projective_space(n), "smooth", None))
    for q in ((1, 1, 2), (1, 2, 3), (1, 2, 3, 5), (1, 1, 2, 3)):
        cat.append(("P(" + ",".join(map(str, q)) + ")", weighted_projective(q), "wps", None))
    for k in (2, 3, 4, 6):
        subs = {"half": [(1, 1), (0, 2)]} if k % 2 == 0 and k > 2 else None
        cat.append((f"A{k - 1}", a_cone(k), "quadric", subs))
    cat.append(("diamond", diamond(), "nonsimplicial", None))
    cat.append(("square", square(), "nonsimplicial", None))
    cat.append(("cube", cube(), "nonsimplicial", None))
    for name, s in INVALID.items():
        cat.append((name, s, "invalid", None))
    return cat


def present_questions(w: Writer) -> list[Question]:
    out: list[Question] = []

    def ask(klass, argv, facts):
        out.append(Question(f"present{len(out):03d}", klass, argv, facts))

    for name, s, kind, subs in catalogue():
        path, c, _ = w.fan(s, subs)
        facts = {"name": name, "shape": c, "kind": kind}
        ask("present.validate", ["validate", path], facts)
        if kind == "invalid":
            continue
        ask("present.invariants", ["invariants", path], facts)
        ask("present.cox", ["present", path, "--mode", "cox"], facts)
        ask("present.kajiwara", ["present", path, "--mode", "kajiwara"], facts)
        for sub in subs or {}:
            ask("present.subgroup", ["present", path, "--mode", "subgroup", "--subgroup", sub],
                dict(facts, subgroup=sub))
    return out


WORKLOADS = {"lift": lift_questions, "iso": iso_questions, "present": present_questions}


def build(workload: str, seed: int, directory: Path) -> list[Question]:
    """Generate and write the questions of one workload."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](Writer(directory, rng))


# -- defect probes (pinned: the same fans at every seed, never timed) ----------


def probe_questions(directory: Path) -> list[Question]:
    directory.mkdir(parents=True, exist_ok=True)
    plane_p = directory / "probe_plane.fan"
    diamond_p = directory / "probe_diamond.fan"
    poly_p = directory / "probe_polygon17.fan"
    plane_p.write_text(fan_text(plane()), encoding="utf-8")
    diamond_p.write_text(fan_text(diamond()), encoding="utf-8")
    poly_p.write_text(fan_text(polygon(17)), encoding="utf-8")
    return [
        # ROADMAP item 2: the same question is "yes" at --search-bound 200,
        # and widening the box cannot lose a solution
        Question("probe.search_bound", "probe.yes",
                 ["lift", str(plane_p), str(diamond_p), "--matrix", "0,0,0,0,2,2",
                  "--search-bound", "224"]),
        # ROADMAP item 4: the identity of Z^17 lifts the identity morphism
        Question("probe.hilbert_guard", "probe.yes",
                 ["lift", str(poly_p), str(poly_p), "--matrix", "1,0,0,1"]),
    ]
