"""Command-line interface.

Subcommands: ``validate``, ``invariants``, ``present``, ``lift``, ``iso``,
``split``.  Reports are deterministic text on stdout (byte-identical across
runs on identical inputs) and every report embeds the tool version and the
sha256 of each input file.  ``--out FILE`` additionally writes the same data
as JSON.

Exit codes: 0 = an answer was computed (including "no" answers), 1 = input
error (unreadable/invalid file, bad flags, incompatible morphism), 2 =
resource guard tripped or the lifting search ended undecided.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

from . import __version__
from .divisors import BUILTIN_SUBGROUPS, cox_subgroup, divisor_subgroup
from .fan import FanValidationError, split_torus_factor
from .fanfile import (
    FanDocument,
    canonical_document,
    morphism_matrix,
    parse_fan_file,
    read_fan_document,
    validate_document,
)
from .lattice import IntMatrix, ResourceLimitError
from .lifting import (
    SCOPE_NOTE,
    classify_liftings,
    solve_geometric_pullback,
    validate_toric_morphism,
)
from .isomorphism import toric_isomorphism
from .presentation import presentation_from_subgroup

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GUARD = 2


class _InputError(Exception):
    pass


def _header(*inputs) -> tuple[list[str], dict]:
    """The report's opening text lines and the matching JSON keys: the tool
    version, then per ``(label, document)`` input its path and sha256."""
    lines = [f"toriclift {__version__}"]
    payload: dict = {"tool": __version__}
    for label, doc in inputs:
        lines.append(f"{label}: {doc.path} sha256 {doc.digest}")
        payload[label] = {"path": doc.path, "sha256": doc.digest}
    return lines, payload


def _resolve_subgroup(doc: FanDocument, name: str):
    if name in doc.subgroups:
        return divisor_subgroup(doc.fan, doc.subgroups[name])
    if name in BUILTIN_SUBGROUPS:
        return BUILTIN_SUBGROUPS[name](doc.fan)
    raise _InputError(
        f"subgroup '{name}' is not defined in {doc.path} and is not a "
        f"built-in name ({', '.join(BUILTIN_SUBGROUPS)})"
    )


def _fmt(v) -> str:
    return str([list(r) if isinstance(r, (tuple, list)) else r for r in v])


# -- subcommand handlers: each returns (exit_code, text lines, json payload) ------


def _cmd_validate(args) -> tuple[int, list[str], dict]:
    raw = read_fan_document(args.file)
    lines, payload = _header(("input", raw))
    try:
        doc = validate_document(raw)
    except FanValidationError as e:
        lines.append("valid: no")
        for p in e.problems:
            lines.append(f"problem: {p}")
        payload.update({"valid": False, "problems": list(e.problems)})
        return EXIT_OK, lines, payload
    fan = doc.fan
    lines += [
        "valid: yes",
        f"rank: {fan.rank}",
        f"rays: {fan.n_rays}",
        f"max cones: {len(fan.max_cones)}",
    ]
    payload.update(
        {
            "valid": True,
            "rank": fan.rank,
            "rays": [list(r) for r in fan.rays],
            "max_cones": [list(c) for c in fan.max_cones],
        }
    )
    return EXIT_OK, lines, payload


def _cmd_invariants(args) -> tuple[int, list[str], dict]:
    doc = parse_fan_file(args.file)
    fan = doc.fan
    group = cox_subgroup(fan).grading_cokernel.group
    torus_rank = fan.rank - fan.span_rank
    lines, head = _header(("input", doc))
    lines += [
        f"class group: {group}",
        f"simplicial: {'yes' if fan.is_simplicial else 'no'}",
        f"smooth: {'yes' if fan.is_smooth else 'no'}",
        f"degenerate: {'yes' if fan.is_degenerate else 'no'}",
        f"torus factor rank: {torus_rank}",
    ]
    payload = {
        **head,
        "class_group": str(group),
        "simplicial": fan.is_simplicial,
        "smooth": fan.is_smooth,
        "degenerate": fan.is_degenerate,
        "torus_factor_rank": torus_rank,
    }
    return EXIT_OK, lines, payload


def _cmd_present(args) -> tuple[int, list[str], dict]:
    if args.mode == "subgroup":
        if not args.subgroup:
            raise _InputError("--mode subgroup requires --subgroup NAME")
        name, mode_text = args.subgroup, f"subgroup {args.subgroup}"
    elif args.subgroup is not None:
        raise _InputError("--subgroup NAME applies only with --mode subgroup")
    else:
        name = mode_text = args.mode
    doc = parse_fan_file(args.file)
    pres = presentation_from_subgroup(_resolve_subgroup(doc, name))
    lines, head = _header(("input", doc))
    lines.append(f"mode: {mode_text}")
    lines.append(f"subgroup basis: {_fmt(pres.subgroup.basis)}")
    lines.append(f"coordinates: {pres.n_coordinates}")
    for i, c in enumerate(pres.coordinates):
        lines.append(f"coordinate {i}: divisor {list(c)} degree {list(pres.degrees[i])}")
    lines.append(f"grading group: {pres.grading_group}")
    lines.append(f"enough divisors: {'yes' if pres.enough.ok else 'no'}")
    if not pres.enough.ok:
        for ci in pres.enough.failing_cones:
            lines.append(f"failing cone: {list(doc.fan.max_cones[ci])}")
    lines.append(f"exceptional collections: {len(pres.exceptional_collections)}")
    for i, coll in enumerate(pres.exceptional_collections):
        lines.append(f"collection {i}: coordinates {list(coll)}")
    payload = {
        **head,
        "mode": mode_text,
        "subgroup_basis": [list(r) for r in pres.subgroup.basis],
        "coordinates": [list(c) for c in pres.coordinates],
        "degrees": [list(d) for d in pres.degrees],
        "grading_group": str(pres.grading_group),
        "enough_divisors": pres.enough.ok,
        "failing_cones": [list(doc.fan.max_cones[ci]) for ci in pres.enough.failing_cones]
        if not pres.enough.ok
        else [],
        "exceptional_collections": [list(c) for c in pres.exceptional_collections],
    }
    return EXIT_OK, lines, payload


def _parse_matrix_flag(text: str, rows: int, cols: int) -> IntMatrix:
    try:
        entries = [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise _InputError(f"--matrix entries must be integers: got '{text}'")
    if len(entries) != rows * cols:
        raise _InputError(
            f"--matrix needs {rows * cols} entries "
            f"({rows}x{cols}, row-major), got {len(entries)}"
        )
    return IntMatrix(
        [entries[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols
    )


def _cmd_lift(args) -> tuple[int, list[str], dict]:
    src = parse_fan_file(args.source)
    if args.morphism is not None and args.matrix is not None:
        raise _InputError("give either --matrix or --morphism, not both")
    if args.morphism is not None:
        if args.morphism not in src.morphisms:
            raise _InputError(
                f"morphism '{args.morphism}' is not defined in {src.path}"
            )
        target_path = args.target
        if target_path is None:
            target_path = str(src.morphism_target_path(args.morphism))
    elif args.target is None:
        raise _InputError("lift needs a target file (or --morphism LABEL)")
    elif args.matrix is None:
        raise _InputError("lift needs --matrix (or --morphism LABEL)")
    else:
        target_path = args.target
    # the source document when the path string is the same (compared as
    # given, since the report prints each path)
    dst = src if target_path == src.path else parse_fan_file(target_path)
    if args.morphism is not None:
        matrix = morphism_matrix(src.morphisms[args.morphism], dst.fan.rank, src.fan.rank)
    else:
        matrix = _parse_matrix_flag(args.matrix, dst.fan.rank, src.fan.rank)

    f = validate_toric_morphism(src.fan, dst.fan, matrix)
    target_sub = _resolve_subgroup(dst, args.dst_subgroup)
    if dst is src and args.src_subgroup == args.dst_subgroup:
        source_sub = target_sub
    else:
        source_sub = _resolve_subgroup(src, args.src_subgroup)
    report = solve_geometric_pullback(
        f, target_sub, source_sub, search_bound=args.search_bound
    )
    verdict = {"yes": "true", "no": "false", "undecided": "undecided"}[report.verdict]
    lines, head = _header(("source", src), ("target", dst))
    lines += [
        f"matrix: {matrix.to_lists()}",
        f"source subgroup: {args.src_subgroup}",
        f"target subgroup: {args.dst_subgroup}",
        f"exists: {verdict}",
    ]
    lines += classify_liftings(report, src.fan.rank).splitlines()
    payload = {
        **head,
        "matrix": matrix.to_lists(),
        "source_subgroup": args.src_subgroup,
        "target_subgroup": args.dst_subgroup,
        "exists": report.exists,
        "verdict": report.verdict,
        "uniqueness": report.uniqueness_note,
        "scope": SCOPE_NOTE,
    }
    if report.phi is not None:
        phi = report.phi.to_lists()
        payload["witness"] = {
            "phi": phi,
            "decomposition": [
                {"member": row, "character": [0] * src.fan.rank} for row in phi
            ],
            # a constant of the stable --out format, pinned by the lift
            # goldens: it was always empty, since on simplicial targets no
            # direction is left and on others the free directions are
            # enumerated into witness_classes
            "solution_lattice": [],
        }
        payload["witness_classes"] = [m.to_lists() for m in report.witness_classes]
        hom = report.induced_grading_hom
        lines.append(
            f"induced grading map: {hom.domain} -> {hom.codomain} "
            f"matrix {hom.matrix.to_lists()}"
        )
        payload["grading_map"] = {
            "domain": str(hom.domain),
            "codomain": str(hom.codomain),
            "matrix": hom.matrix.to_lists(),
        }
    code = EXIT_GUARD if report.verdict == "undecided" else EXIT_OK
    return code, lines, payload


def _cmd_iso(args) -> tuple[int, list[str], dict]:
    a = parse_fan_file(args.first)
    raw = read_fan_document(args.second)
    b = canonical_document(raw)
    # a verified isomorphism carries the first file's valid fan onto the
    # second's, which certifies its geometry; every other outcome validates
    # the second file in full first, so an invalid one reports as invalid
    try:
        report = toric_isomorphism(a.fan, b.fan)
    except ResourceLimitError:
        validate_document(raw)
        raise
    if not report.isomorphic:
        validate_document(raw)
    lines, head = _header(("first", a), ("second", b))
    lines += [
        f"isomorphic: {'yes' if report.isomorphic else 'no'}",
        f"torus factor ranks: {report.torus_ranks[0]} {report.torus_ranks[1]}",
        f"reason: {report.reason}",
    ]
    payload = {
        **head,
        "isomorphic": report.isomorphic,
        "torus_ranks": list(report.torus_ranks),
        "reason": report.reason,
    }
    if report.iso is not None:
        lines += [
            f"matrix: {report.iso.matrix.to_lists()}",
            f"ray bijection: {list(report.iso.ray_bijection)}",
            f"cone bijection: {list(report.iso.cone_bijection)}",
        ]
        payload["iso"] = {
            "matrix": report.iso.matrix.to_lists(),
            "ray_bijection": list(report.iso.ray_bijection),
            "cone_bijection": list(report.iso.cone_bijection),
        }
    return EXIT_OK, lines, payload


def _cmd_split(args) -> tuple[int, list[str], dict]:
    doc = parse_fan_file(args.file)
    split = split_torus_factor(doc.fan)
    red = split.reduced_fan
    lines, head = _header(("input", doc))
    lines += [
        f"torus factor rank: {split.torus_rank}",
        f"reduced rank: {red.rank}",
    ]
    for i, r in enumerate(red.rays):
        lines.append(f"reduced ray {i}: {list(r)}")
    for i, c in enumerate(red.max_cones):
        lines.append(f"reduced cone {i}: {list(c)}")
    lines.append(f"change of basis: {split.change_of_basis.to_lists()}")
    payload = {
        **head,
        "torus_factor_rank": split.torus_rank,
        "reduced_rank": red.rank,
        "reduced_rays": [list(r) for r in red.rays],
        "reduced_cones": [list(c) for c in red.max_cones],
        "change_of_basis": split.change_of_basis.to_lists(),
        "ray_map": list(split.ray_map),
    }
    return EXIT_OK, lines, payload


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toriclift",
        description="Quotient presentations, morphism lifting, and "
        "isomorphism checks for toric varieties given as fans.",
    )
    parser.add_argument("--version", action="version", version=f"toriclift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="also write the report as JSON to this file")

    p = sub.add_parser("validate", help="check the fan axioms")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("invariants", help="class group, smoothness, degeneracy")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("present", help="build a quotient presentation")
    p.add_argument("file")
    p.add_argument("--mode", choices=(*BUILTIN_SUBGROUPS, "subgroup"), default="cox")
    p.add_argument("--subgroup", default=None, help="named subgroup (with --mode subgroup)")
    common(p)
    p.set_defaults(handler=_cmd_present)

    p = sub.add_parser("lift", help="decide lifting of a toric morphism")
    p.add_argument("source", help="source fan file")
    p.add_argument("target", nargs="?", default=None, help="target fan file")
    p.add_argument("--matrix", default=None, help="row-major integer entries, comma-separated")
    p.add_argument("--morphism", default=None, help="named morphism declared in the source file")
    p.add_argument("--src-subgroup", default="cox")
    p.add_argument("--dst-subgroup", default="cox")
    p.add_argument("--search-bound", type=_non_negative, default=None,
                   help="coefficient box bound for the feasibility search")
    common(p)
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("iso", help="decide toric isomorphism of two fans")
    p.add_argument("first")
    p.add_argument("second")
    common(p)
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("split", help="split off the torus factor")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_split)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None
_MATRIX_VALUE = re.compile(r"-?\d+(,-?\d+)*")


def _attach_matrix_values(argv: Sequence[str]) -> list[str]:
    """``--matrix V`` as ``--matrix=V`` when V is a list of integers, so that
    argparse does not read a leading minus sign as the start of a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--matrix" and _MATRIX_VALUE.fullmatch(arg):
            out[-1] = f"--matrix={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(_attach_matrix_values(argv))
    except SystemExit as e:
        # argparse exits 2 on usage errors, but 2 means "guard/undecided"
        # here; bad flags are input errors
        return EXIT_OK if e.code in (0, None) else EXIT_INPUT
    try:
        code, lines, payload = args.handler(args)
    except (_InputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_GUARD
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
