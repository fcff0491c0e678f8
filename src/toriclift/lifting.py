"""Toric morphisms and lifting of morphisms to quotient presentations.

Given a lattice map carrying the source fan into the target fan, this module
decides whether the morphism lifts to chosen quotient presentations on both
sides.  The decision runs in stages: Cartier members of the target subgroup
have forced pullbacks, read off one matrix per morphism
(``ToricMorphism.cartier_pullback``); those values must extend to the whole
subgroup; each extended value must lie in the source subgroup, which by
admissibility holds every principal divisor; and finally the effectivity
and support conditions are imposed on the effective generators — skipped
for simplicial targets, where they hold automatically.  Failures carry
machine-checkable certificates, and searches that exhaust their configured
bound report "undecided" rather than guessing.

The extensions are X + N @ T over integer matrices T.  Containment is read
off the Smith form U B V = S of the Cartier coordinates B, which the
extension step computes anyway: V is unimodular and N is V past the rank,
so V^-1 (X + N T) stacks the rows the Cartier values fix above T.  Every
row lies in the source subgroup L iff each fixed row does and T = W H for
the Hermite basis H of L and some integer W.  So containment is one
membership test per fixed row, and only the support equations of a
non-simplicial target are solved, as one integer system over W.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .divisors import DivisorSubgroup
from .fan import Fan
from .lattice import (
    AbHom,
    ExtensionObstruction,
    HomExtension,
    IntMatrix,
    ResourceLimitError,
    Vec,
    extend_homomorphism,
    hermite_coefficients,
    hermite_row_basis,
    solve_integer_linear,
    vec_dot,
)

SCOPE_NOTE = (
    "effectivity and support conditions are enforced on the minimal "
    "effective generators of the target subgroup; non-effective members "
    "are not separately checked"
)

MAX_SEARCH_POINTS = 200_000
MAX_WITNESS_CLASSES = 64
MAX_PROJECTION_PAIRS = 100_000


class MorphismValidationError(ValueError):
    """The lattice map does not carry the source fan into the target fan."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ToricMorphism:
    """Lattice map between fans, with per-ray image locations.

    ``matrix`` is target_rank x source_rank and acts on column vectors;
    ``ray_faces[i]`` holds the rays of the minimal target cone containing
    the image of source ray i.
    """

    source: Fan
    target: Fan
    matrix: IntMatrix
    ray_faces: tuple[tuple[int, ...], ...]

    def ray_image(self, ray_index: int) -> Vec:
        return self.matrix.apply(self.source.rays[ray_index])

    @cached_property
    def cartier_pullback(self) -> tuple[IntMatrix, Vec]:
        """Pullback of Cartier divisors as one matrix: numerators P, one row
        per source ray over the target rays, and denominators q, so that the
        pullback of a Cartier divisor d has coefficient (P d)_i / q_i.

        The pullback pairs the image w of source ray i with the local
        character m of d on a target max cone sigma holding it: the first
        with every ray of w's minimal cone, in whose relative interior w
        lies.  Write w as a rational combination a of sigma's rays u_j; since
        <m, u_j> = d_j, <m, w> = sum_j a_j d_j (the support function of d:
        Cox-Little-Schenck, Toric Varieties, 4.2).  a is read off sigma's
        cached Smith form U R V = S, rays R as rows: a R = w iff z S = w V for
        z = a U^-1, so z_k = (w V)_k / s_k up to the rank and 0 past it, and
        q_i is the lcm of the s_k.  On a non-simplicial sigma any such a
        serves, because m is one character on all of sigma.  A zero image,
        the only kind a target with no max cone admits, gives a zero row
        over 1.
        """
        target = self.target
        rows, denominators = [], []
        for i, face in enumerate(self.ray_faces):
            if not face:
                rows.append([0] * target.n_rays)
                denominators.append(1)
                continue
            ci = next(ci for ci, cone in enumerate(target.max_cones) if set(face) <= set(cone))
            snf = target.cone_snfs[ci]
            s = snf.invariant_factors
            wv = snf.V.left_apply(self.ray_image(i))
            assert not any(wv[len(s):]), "a ray image lies in the span of its cone"
            q = lcm(*s)
            z = [x * (q // d) for x, d in zip(wv, s)] + [0] * (snf.U.rows - len(s))
            row = [0] * target.n_rays
            for j, a in zip(target.max_cones[ci], snf.U.left_apply(z)):
                row[j] = a
            rows.append(row)
            denominators.append(q)
        return IntMatrix(rows, cols=target.n_rays), tuple(denominators)

    def pull_back_cartier(self, divisor: Sequence[int]) -> Vec:
        """Pullback coefficients of a Cartier divisor on the target, read off
        ``cartier_pullback``.  A division with remainder shows the divisor
        is not Cartier and raises ValueError; an exact one does not prove
        that it is."""
        numerators, denominators = self.cartier_pullback
        out = []
        for x, q in zip(numerators.apply(divisor), denominators):
            if x % q:
                raise ValueError(f"divisor {list(divisor)} is not Cartier")
            out.append(x // q)
        return tuple(out)


def validate_toric_morphism(
    source: Fan, target: Fan, matrix: IntMatrix
) -> ToricMorphism:
    """Check fan compatibility: every source max cone must map into some
    target cone.  All incompatible cones are reported together.

    Each ray image is located once.  A fan cone holds a point iff it holds
    that point's minimal cone, so a source cone maps into a target max cone
    iff the faces of its rays' images all lie in it: their union is empty
    or inside one target max cone's rays.
    """
    if matrix.rows != target.rank or matrix.cols != source.rank:
        raise MorphismValidationError(
            [
                f"matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{target.rank}x{source.rank} (target rank x source rank)"
            ]
        )
    faces = [target.locate(matrix.apply(ray)) for ray in source.rays]
    problems: list[str] = []
    for cone in source.max_cones:
        if any(faces[i] is None for i in cone):
            fits = False
        else:
            union = set().union(*(faces[i] for i in cone))
            fits = not union or any(union <= set(c) for c in target.max_cones)
        if not fits:
            problems.append(
                f"image of source max cone {list(cone)} (rays "
                f"{[list(source.rays[i]) for i in cone]}) lies in no target cone"
            )
    if problems:
        raise MorphismValidationError(problems)
    return ToricMorphism(
        source=source, target=target, matrix=matrix, ray_faces=tuple(faces)
    )


# -- lifting report types ---------------------------------------------------------


@dataclass(frozen=True)
class ContainmentFailureCertificate:
    """Some extended value lies outside the source subgroup (so is no member
    plus principal divisor), for any choice of extension."""

    # the target-subgroup basis rows that fail alone; empty when the rows
    # fail only in combination
    basis_indices: tuple[int, ...]


@dataclass(frozen=True)
class EffectivityFailureCertificate:
    """An effective generator of the target subgroup maps to a divisor with
    a negative coefficient (no residual freedom remained), or the residual
    system is rationally infeasible."""

    generator: Optional[Vec]
    coefficient_index: Optional[int]
    rationally_infeasible: bool


@dataclass(frozen=True)
class LiftingReport:
    """Outcome of the lifting decision.

    ``verdict`` is "yes", "no", or "undecided" (search exhausted its bound
    without an answer).  On a yes, ``witness_classes`` lists the distinct
    liftings found, the witness ``phi`` first; on a no, ``obstruction`` is
    its certificate.  The module's ``SCOPE_NOTE`` states the extent of the
    conditions checked.
    """

    verdict: str
    uniqueness_note: str
    witness_classes: tuple[IntMatrix, ...] = ()
    induced_grading_hom: Optional[AbHom] = None
    obstruction: Optional[object] = None

    @property
    def phi(self) -> Optional[IntMatrix]:
        """The witness: row j is the pullback of basis divisor j as a source
        divisor.  Each row lies in the source subgroup, so it is a member
        plus the principal divisor of the zero character: an admissible
        subgroup holds every principal divisor.  None unless the verdict is
        yes."""
        return self.witness_classes[0] if self.witness_classes else None

    @property
    def exists(self) -> Optional[bool]:
        if self.verdict == "yes":
            return True
        if self.verdict == "no":
            return False
        return None


# -- the solver --------------------------------------------------------------------


def solve_geometric_pullback(
    f: ToricMorphism,
    target_subgroup: DivisorSubgroup,
    source_subgroup: DivisorSubgroup,
    *,
    search_bound: Optional[int] = None,
) -> LiftingReport:
    """Decide whether the morphism lifts to the chosen presentations.

    Stages: forced Cartier pullbacks, one product with the morphism's
    ``cartier_pullback`` matrix per Cartier member; additive extension to
    the whole target subgroup; containment of each value in the source
    subgroup; effectivity and support conditions on effective generators.
    A simplicial target is Q-factorial: every divisor has a Cartier
    multiple (Cox-Little-Schenck, Toric Varieties, 4.2.7), so the forced
    values fix the lifting, which meets the conditions automatically; they
    are skipped there.  ``search_bound`` caps the coefficient box searched
    when residual freedom survives the linear stages; exhausting it yields
    verdict "undecided".  A negative ``search_bound`` is a ValueError: it
    would search an empty box.
    """
    if search_bound is not None and search_bound < 0:
        raise ValueError(f"search bound must be non-negative, got {search_bound}")
    if target_subgroup.fan != f.target:
        raise ValueError("target subgroup lives on a different fan")
    if source_subgroup.fan != f.source:
        raise ValueError("source subgroup lives on a different fan")
    n_src = f.source.n_rays
    k = len(target_subgroup.basis)

    conditions = not f.target.is_simplicial

    # (a) forced values on the Cartier members
    forced = [f.pull_back_cartier(c) for c in target_subgroup.cartier_members]

    # (b) extend from the Cartier members to the whole subgroup
    ext, obs = extend_homomorphism(
        IntMatrix(target_subgroup.cartier_coefficients, cols=k), IntMatrix(forced, cols=n_src)
    )
    if obs is not None:
        divisor = IntMatrix(target_subgroup.basis, cols=f.target.n_rays).left_apply(obs.element)
        return _no_report(
            ExtensionObstruction(multiplier=obs.multiplier, element=divisor, required=obs.required)
        )
    # (c) containment in the source subgroup: the rows of V^-1 phi are the
    # fixed rows over T, so phi's rows lie in it iff each fixed row does
    if not all(source_subgroup.contains(y) for y in ext.fixed):
        return _no_report(
            ContainmentFailureCertificate(basis_indices=_failing_rows(ext, source_subgroup.basis))
        )
    # on a simplicial target the forced values already fix phi
    assert conditions or not ext.kernel.cols, "free directions on a simplicial target"
    phi0, dirs = ext.particular, []
    if conditions:
        # the zero-forcing equations of the support condition, over T = W H
        solved = _support_solution(
            ext, source_subgroup.basis, _support_zero_cells(f, target_subgroup)
        )
        if solved is None:
            return _no_report(
                EffectivityFailureCertificate(
                    generator=None, coefficient_index=None, rationally_infeasible=False
                )
            )
        t_particular, t_dirs = solved
        phi0 = phi0 + _shift(ext.kernel, t_particular, n_src)
        dirs = [_shift(ext.kernel, t, n_src) for t in t_dirs]

        # (d) effectivity inequalities on the effective generators, over the
        # coordinates tau of phi0 + sum_s tau_s dirs[s]
        gens = target_subgroup.effective_generators
        system = _effectivity_system(phi0, dirs, target_subgroup.generator_coefficients, n_src)
        chain = _projections(system, len(dirs))
        bad = next((r for r, (_, b) in enumerate(chain[0]) if b > 0), None)
        if bad is not None:
            # with no direction chain[0] is the system itself, whose row r is
            # the pullback of generator r // n_src at source ray r % n_src
            return _no_report(
                EffectivityFailureCertificate(
                    generator=None if dirs else gens[bad // n_src],
                    coefficient_index=None if dirs else bad % n_src,
                    rationally_infeasible=bool(dirs),
                )
            )
        entries = [abs(x) for row in phi0 for x in row]
        bound_used = search_bound if search_bound is not None else 4 * max([1] + entries)
        found = _effective_points(chain, bound_used)
        if not found:
            return LiftingReport(
                verdict="undecided",
                uniqueness_note=(
                    f"no integral solution within coefficient bound "
                    f"{bound_used}; the rational relaxation is feasible"
                ),
            )
        classes = [sum((D * c for c, D in zip(tau, dirs)), phi0) for tau in found]
    else:
        classes = [phi0]

    phi = classes[0]
    problems = verify_pullback_witness(
        f, target_subgroup, source_subgroup, phi, conditions=conditions
    )
    assert not problems, f"witness failed re-verification: {problems}"

    if not dirs:
        note = "unique"
    elif len(classes) == 1:
        note = "one witness class found within the search bound"
    else:
        note = f"{len(classes)} witness classes found within coefficient bound {bound_used}"
    return LiftingReport(
        verdict="yes",
        uniqueness_note=note,
        witness_classes=tuple(classes),
        induced_grading_hom=induced_grading_hom(f, target_subgroup, source_subgroup, phi),
    )


def _no_report(certificate) -> LiftingReport:
    return LiftingReport(
        verdict="no", uniqueness_note="no lifting exists", obstruction=certificate
    )


def _support_zero_cells(
    f: ToricMorphism, target_subgroup: DivisorSubgroup
) -> list[tuple[Vec, int]]:
    """Support-condition equations: pairs (generator coefficients, source ray)
    whose pullback coefficient is forced to zero.

    A nonzero coefficient of the pullback of an effective generator at a
    source ray is allowed only when the minimal target cone containing that
    ray's image shares a ray with the generator's support.
    """
    cells = []
    for g, coeffs in zip(target_subgroup.effective_generators, target_subgroup.generator_coefficients):
        support = {j for j, x in enumerate(g) if x > 0}
        for i, face in enumerate(f.ray_faces):
            if support.isdisjoint(face):
                cells.append((coeffs, i))
    return cells


def _failing_rows(ext: HomExtension, lattice_rows: Sequence[Vec]) -> tuple[int, ...]:
    """Rows j of X + N @ T that lie in the lattice L for no T.  N_j @ T
    ranges over g_j Z^n, g_j the gcd of row j of N, so row j fails on its
    own iff X_j is not in L + g_j Z^n."""
    X, N = ext.particular, ext.kernel
    n = X.cols
    failing = []
    for j, x in enumerate(X):
        g = gcd(*N.row(j))
        widened = hermite_row_basis(
            [*lattice_rows, *(IntMatrix.identity(n) * g)], width=n
        )
        if hermite_coefficients(widened, x) is None:
            failing.append(j)
    return tuple(failing)


def _support_solution(
    ext: HomExtension, lattice_rows: Sequence[Vec], zero_cells: Sequence[tuple[Vec, int]]
) -> Optional[tuple[Vec, list[Vec]]]:
    """Solve the zero-forcing equations (generator coefficients c, source
    ray i) of the support condition, c @ (X + N @ T) vanishing at ray i, over
    the d x r integer matrices W with T = W @ H, H the r x n Hermite basis
    of the lattice; the fixed rows must lie in the lattice already.  The
    entries W[a, b], read row by row, are the unknowns, and (c @ N)_a H[b, i]
    is the coefficient of W[a, b].  Returns the particular T and the Hermite
    basis of the T-directions, each read row by row, or None when
    infeasible.  On the full lattice H is the identity and W is T."""
    X, N = ext.particular, ext.kernel
    H = IntMatrix(lattice_rows, cols=X.cols)
    r = H.rows
    rows, rhs = [], []
    for coeffs, ray_i in zero_cells:
        h = H.col(ray_i)
        rows.append([a * x for a in N.left_apply(coeffs) for x in h])
        rhs.append(-vec_dot(coeffs, X.col(ray_i)))
    sol = solve_integer_linear(IntMatrix(rows, cols=N.cols * r), rhs)
    if sol is None:
        return None

    def t_of(w: Vec) -> Vec:
        return tuple(x for a in range(N.cols) for x in H.left_apply(w[a * r:(a + 1) * r]))

    t_dirs = hermite_row_basis(map(t_of, sol.kernel_basis), width=N.cols * X.cols)
    return t_of(sol.particular), list(t_dirs)


def _shift(N: IntMatrix, t: Sequence[int], n: int) -> IntMatrix:
    """N @ T for the entries t of the d x n matrix T, read row by row."""
    return N @ IntMatrix((t[i * n:(i + 1) * n] for i in range(N.cols)), cols=n)


def _effectivity_system(
    phi0: IntMatrix, dirs: list[IntMatrix], gen_coeffs: Sequence[Vec], n_src: int
) -> list[tuple[Vec, int]]:
    """Rows (a, b) of a . tau >= b, one per (generator, source ray) in that
    order: the pullback of the generator is nonnegative at the ray."""
    rows: list[tuple[Vec, int]] = []
    for c in gen_coeffs:
        base = phi0.left_apply(c)
        dir_vals = [D.left_apply(c) for D in dirs]
        rows.extend((tuple(dv[r] for dv in dir_vals), -base[r]) for r in range(n_src))
    return rows


def _projections(rows: list[tuple[Vec, int]], dim: int) -> list[list[tuple[Vec, int]]]:
    """Fourier-Motzkin chain of the system a . tau >= b over tau_0..tau_{dim-1}
    (Schrijver, Theory of Linear and Integer Programming, 12.2), in integers.

    Entry k holds the rows over tau_0..tau_{k-1} left once the later
    coordinates are eliminated, so entry dim is the system itself and entry
    0, over no coordinate, has a row with b > 0 iff the system is rationally
    infeasible.  A combined row is divided by the gcd of its entries, which
    keeps its solutions; duplicates are dropped.  The rows can grow doubly
    exponentially with ``dim``, so an elimination that would combine more
    than MAX_PROJECTION_PAIRS row pairs raises ResourceLimitError first.
    """
    chain = [rows]
    for var in range(dim - 1, -1, -1):
        kept = {(a[:var], b): None for a, b in chain[0] if not a[var]}
        lower = [(a, b) for a, b in chain[0] if a[var] > 0]
        upper = [(a, b) for a, b in chain[0] if a[var] < 0]
        pairs = len(lower) * len(upper)
        if pairs > MAX_PROJECTION_PAIRS:
            raise ResourceLimitError(
                f"Fourier-Motzkin elimination would combine {pairs} row pairs, over guard "
                f"{MAX_PROJECTION_PAIRS}: MAX_PROJECTION_PAIRS = {MAX_PROJECTION_PAIRS} in "
                f"toriclift.lifting, no flag overrides it"
            )
        for al, bl in lower:
            for au, bu in upper:
                # -au[var] * (row al) + al[var] * (row au) cancels tau_var
                cl, cu = -au[var], al[var]
                a = [cl * x + cu * y for x, y in zip(al[:var], au[:var])]
                b = cl * bl + cu * bu
                g = gcd(*a, b) or 1
                kept[(tuple(x // g for x in a), b // g)] = None
        chain.insert(0, list(kept))
    return chain


def _effective_points(chain: list[list[tuple[Vec, int]]], bound: int) -> list[Vec]:
    """Integer solutions in [-bound, bound]^dim of a rationally feasible
    system, given by its ``_projections`` chain, in lexicographic order; at
    most MAX_WITNESS_CLASSES of them, none when the bound holds no solution
    (a bounded search, so the caller reports 'undecided', not 'no').

    A depth-first search takes tau_k from the range its projection leaves
    given tau_0..tau_{k-1}, so every prefix it visits extends to a rational
    solution.  A search that visits more than MAX_SEARCH_POINTS nodes raises
    ResourceLimitError rather than reporting a search that never finished.
    """
    dim = len(chain) - 1
    found: list[Vec] = []
    visited = 0

    def extend(prefix: list[int]) -> None:
        nonlocal visited
        k = len(prefix)
        if k == dim:
            found.append(tuple(prefix))
            return
        lo, hi = -bound, bound
        for a, b in chain[k + 1]:
            if a[k]:
                s = b - sum(x * t for x, t in zip(a, prefix))
                if a[k] > 0:
                    lo = max(lo, -(-s // a[k]))
                else:
                    hi = min(hi, s // a[k])
        for t in range(lo, hi + 1):
            visited += 1
            if visited > MAX_SEARCH_POINTS:
                raise ResourceLimitError(
                    f"effectivity search visited {visited} nodes, over guard "
                    f"{MAX_SEARCH_POINTS}: MAX_SEARCH_POINTS = {MAX_SEARCH_POINTS} in "
                    f"toriclift.lifting, lower --search-bound"
                )
            extend(prefix + [t])
            if len(found) == MAX_WITNESS_CLASSES:
                return

    extend([])
    return found


def induced_grading_hom(
    f: ToricMorphism,
    target_subgroup: DivisorSubgroup,
    source_subgroup: DivisorSubgroup,
    phi: IntMatrix,
) -> AbHom:
    """The homomorphism (target subgroup)/(principal) -> (source subgroup)/
    (principal) induced by the witness phi: the grading-level shadow of the
    lifting.  The rows of phi lie in the source subgroup, so the image of
    each grading generator is read off in source subgroup coordinates."""
    coker_t = target_subgroup.grading_cokernel
    coker_s = source_subgroup.grading_cokernel
    rows = []
    for lift in coker_t.generator_lifts:
        c = source_subgroup.coefficients(phi.left_apply(lift))
        assert c is not None, "witness rows lie in the source subgroup"
        rows.append(coker_s.project(c))
    return AbHom(
        domain=coker_t.group,
        codomain=coker_s.group,
        matrix=IntMatrix(tuple(rows), cols=coker_s.group.n_generators),
    )


def verify_pullback_witness(
    f: ToricMorphism,
    target_subgroup: DivisorSubgroup,
    source_subgroup: DivisorSubgroup,
    phi: IntMatrix,
    *,
    conditions: bool,
) -> list[str]:
    """Independent re-check of a witness phi; returns the list of violations.

    Checks: forced Cartier values (against the morphism's
    ``cartier_pullback``), containment of every row in the source
    subgroup, effectivity and support conditions on the effective generators
    (when ``conditions``).
    """
    problems: list[str] = []
    n_src = f.source.n_rays

    for c, coeffs in zip(target_subgroup.cartier_members, target_subgroup.cartier_coefficients):
        want = f.pull_back_cartier(c)
        got = phi.left_apply(coeffs)
        if got != want:
            problems.append(
                f"forced Cartier value mismatch on {list(c)}: "
                f"{list(got)} != {list(want)}"
            )

    for j, row in enumerate(phi):
        if not source_subgroup.contains(row):
            problems.append(f"row {j} of phi is not in the source subgroup")

    if conditions:
        for g, coeffs in zip(target_subgroup.effective_generators, target_subgroup.generator_coefficients):
            val = phi.left_apply(coeffs)
            support = {j for j, x in enumerate(g) if x > 0}
            for i in range(n_src):
                if val[i] < 0:
                    problems.append(
                        f"pullback of effective generator {list(g)} is negative "
                        f"at source ray {i}"
                    )
                if val[i] != 0 and support.isdisjoint(f.ray_faces[i]):
                    problems.append(
                        f"support condition fails for generator {list(g)} "
                        f"at source ray {i}"
                    )
    return problems


def classify_liftings(report: LiftingReport, source_rank: int) -> str:
    """Human-readable classification of the lifting outcome; each row of a
    witness is printed as itself plus the principal divisor of the zero
    character, of ``source_rank`` entries."""
    lines: list[str] = []
    if report.verdict == "no":
        lines.append("no lifting exists")
        ob = report.obstruction
        if isinstance(ob, ExtensionObstruction):
            lines.append(
                f"obstruction: {ob.multiplier} * phi({list(ob.element)}) = "
                f"{list(ob.required)} has no integral solution"
            )
        elif isinstance(ob, ContainmentFailureCertificate):
            if ob.basis_indices:
                lines.append(
                    "obstruction: pullback of basis divisor(s) "
                    f"{list(ob.basis_indices)} cannot be written as subgroup "
                    "member + principal divisor"
                )
            else:
                lines.append(
                    "obstruction: no simultaneous containment decomposition "
                    "exists across the basis rows"
                )
        elif isinstance(ob, EffectivityFailureCertificate):
            if ob.rationally_infeasible:
                lines.append(
                    "obstruction: effectivity constraints are infeasible "
                    "even over the rationals"
                )
            elif ob.generator is not None:
                lines.append(
                    f"obstruction: pullback of effective generator "
                    f"{list(ob.generator)} acquires a negative coefficient "
                    f"at source ray {ob.coefficient_index}"
                )
            else:
                lines.append(
                    "obstruction: support conditions force an inconsistent "
                    "system of equations"
                )
        lines.append(f"scope: {SCOPE_NOTE}")
        return "\n".join(lines)
    if report.verdict == "undecided":
        lines.append("undecided: " + report.uniqueness_note)
        lines.append(f"scope: {SCOPE_NOTE}")
        return "\n".join(lines)

    lines.append("lifting exists")
    character = [0] * source_rank
    for j, row in enumerate(report.phi):
        lines.append(
            f"basis divisor {j}: maps to monomial with divisor exponent "
            f"{list(row)} = member {list(row)} + principal of "
            f"character {character}"
        )
    lines.append(f"uniqueness: {report.uniqueness_note}")
    if len(report.witness_classes) > 1:
        lines.append(
            "distinct witness classes (pairwise non-equivalence of the "
            "induced liftings is not asserted):"
        )
        for m in report.witness_classes:
            lines.append("  " + str(m.to_lists()))
    lines.append(f"scope: {SCOPE_NOTE}")
    return "\n".join(lines)
