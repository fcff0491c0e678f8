"""Reading fan documents: a line-oriented text format plus a JSON twin.

Text format (version 1), one directive per line, ``#`` starts a comment::

    fan 1
    rank 2
    ray 1 0
    ray 1 2
    cone 0 1
    subgroup full
    1 0
    0 1
    end
    morphism blowdown quadric.fan
    1 0
    0 1
    end

The JSON twin carries the same data::

    {"format": "fan", "version": 1, "rank": 2,
     "rays": [[1, 0], [1, 2]], "max_cones": [[0, 1]],
     "subgroups": {"full": [[1, 0], [0, 1]]},
     "morphisms": {"blowdown": {"target": "quadric.fan",
                                "matrix": [[1, 0], [0, 1]]}}}

A file whose first non-blank character is ``{`` is parsed as JSON.  Rays may
be listed in any order: cones refer to the listed order, and subgroup basis
columns do too; both are re-expressed in the fan's canonical ray order during
validation, so downstream code never sees the file ordering.  The subgroup
labels of ``divisors.BUILTIN_SUBGROUPS``, ``cox`` and ``kajiwara``, name the
built-in subgroups, so a document may not declare them.

``validate_document`` validates a document's fan in full.
``canonical_document`` leaves its geometry unchecked, for the second file of
``iso``, whose fan geometry is certified by the isomorphism when one is
found; every problem it meets, it reports as ``validate_document`` does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .divisors import BUILTIN_SUBGROUPS
from .fan import Fan, canonical_fan, validate_fan
from .lattice import IntMatrix, Vec

FORMAT_VERSION = 1


class FanFileError(ValueError):
    """Syntax or structural error in a fan document, with file position."""

    def __init__(self, path, line: Optional[int], message: str):
        self.path = str(path)
        self.line = line
        self.message = message
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class MorphismDecl:
    """A named lattice map declared in a document: rows of the matrix plus
    the path of the target document (relative to the declaring file)."""

    target_path: str
    matrix_rows: tuple[Vec, ...]


@dataclass
class RawFanDocument:
    """Syntax-level contents of a fan file, before fan validation.

    ``rays`` and ``max_cones`` are in file order; ``subgroups`` map labels to
    basis rows whose columns follow the file's ray order.
    """

    path: str
    rank: int
    rays: list[Vec]
    max_cones: list[tuple[int, ...]]
    subgroups: dict[str, tuple[Vec, ...]] = field(default_factory=dict)
    morphisms: dict[str, MorphismDecl] = field(default_factory=dict)
    digest: str = ""


@dataclass(frozen=True)
class FanDocument:
    """A validated fan plus the named data that came with it.

    Subgroup bases here are already permuted to the fan's canonical ray
    order.  ``digest`` is the sha256 of the raw file bytes.
    """

    path: str
    fan: Fan
    subgroups: dict[str, tuple[Vec, ...]]
    morphisms: dict[str, MorphismDecl]
    digest: str

    def morphism_target_path(self, label: str) -> Path:
        decl = self.morphisms[label]
        return (Path(self.path).parent / decl.target_path).resolve()


def _ints(parts: Sequence[str], path, line: int, what: str) -> tuple[int, ...]:
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise FanFileError(path, line, f"{what}: '{p}' is not an integer")
    return tuple(out)


def _check_subgroup_label(path, line: Optional[int], label: str) -> None:
    if label in BUILTIN_SUBGROUPS:
        raise FanFileError(
            path, line, f"subgroup label '{label}' is reserved for the built-in subgroup"
        )


def read_fan_text(path, text: str) -> RawFanDocument:
    lines = text.splitlines()
    version: Optional[int] = None
    rank: Optional[int] = None
    rays: list[Vec] = []
    cones: list[tuple[int, ...]] = []
    subgroups: dict[str, tuple[Vec, ...]] = {}
    morphisms: dict[str, MorphismDecl] = {}

    block: Optional[tuple[str, str, Optional[str], int, list[Vec]]] = None
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if block is not None:
            kind, label, target, start_ln, rows = block
            if parts[0] == "end":
                if kind == "subgroup":
                    if label in subgroups:
                        raise FanFileError(path, start_ln, f"duplicate subgroup '{label}'")
                    subgroups[label] = tuple(rows)
                else:
                    if label in morphisms:
                        raise FanFileError(path, start_ln, f"duplicate morphism '{label}'")
                    morphisms[label] = MorphismDecl(target, tuple(rows))
                block = None
            else:
                rows.append(_ints(parts, path, ln, f"{kind} '{label}' row"))
            continue
        directive = parts[0]
        if version is None:
            if directive != "fan" or len(parts) != 2:
                raise FanFileError(
                    path, ln, "expected version line 'fan <version>' first"
                )
            (version,) = _ints(parts[1:], path, ln, "version")
            if version != FORMAT_VERSION:
                raise FanFileError(
                    path, ln,
                    f"unsupported format version {version} (expected {FORMAT_VERSION})",
                )
            continue
        if directive == "rank":
            if rank is not None:
                raise FanFileError(path, ln, "duplicate rank line")
            if len(parts) != 2:
                raise FanFileError(path, ln, "expected 'rank <integer>'")
            (rank,) = _ints(parts[1:], path, ln, "rank")
            if rank < 0:
                raise FanFileError(path, ln, "rank must be nonnegative")
        elif directive == "ray":
            if rank is None:
                raise FanFileError(path, ln, "'ray' before 'rank'")
            v = _ints(parts[1:], path, ln, "ray")
            if len(v) != rank:
                raise FanFileError(
                    path, ln, f"ray has {len(v)} coordinates, expected {rank}"
                )
            rays.append(v)
        elif directive == "cone":
            cones.append(_ints(parts[1:], path, ln, "cone"))
        elif directive == "subgroup":
            if len(parts) != 2:
                raise FanFileError(path, ln, "expected 'subgroup <label>'")
            _check_subgroup_label(path, ln, parts[1])
            block = ("subgroup", parts[1], None, ln, [])
        elif directive == "morphism":
            if len(parts) != 3:
                raise FanFileError(path, ln, "expected 'morphism <label> <target-path>'")
            block = ("morphism", parts[1], parts[2], ln, [])
        elif directive == "end":
            raise FanFileError(path, ln, "'end' outside a block")
        else:
            raise FanFileError(path, ln, f"unknown directive '{directive}'")
    if block is not None:
        raise FanFileError(path, block[3], f"unterminated {block[0]} '{block[1]}'")
    if version is None:
        raise FanFileError(path, None, "empty document (no version line)")
    if rank is None:
        raise FanFileError(path, None, "missing 'rank' line")
    return RawFanDocument(
        path=str(path), rank=rank, rays=rays,
        max_cones=cones, subgroups=subgroups, morphisms=morphisms,
    )


def read_fan_json(path, text: str) -> RawFanDocument:
    def fail(msg: str):
        raise FanFileError(path, None, msg)

    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FanFileError(path, e.lineno, f"invalid JSON: {e.msg}")
    if not isinstance(data, dict):
        fail("top level must be an object")
    if data.get("format") != "fan":
        fail("missing or wrong 'format' key (expected \"fan\")")

    def is_int(x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)

    version = data.get("version")
    if not is_int(version) or version != FORMAT_VERSION:
        fail(f"unsupported format version {version!r} (expected {FORMAT_VERSION})")
    rank = data.get("rank")
    if not is_int(rank) or rank < 0:
        fail("'rank' must be a nonnegative integer")

    def int_rows(value, what: str, width: Optional[int]) -> list[Vec]:
        if not isinstance(value, list):
            fail(f"'{what}' must be a list of integer lists")
        rows = []
        for row in value:
            if not isinstance(row, list) or not all(is_int(x) for x in row):
                fail(f"'{what}' must be a list of integer lists")
            if width is not None and len(row) != width:
                fail(f"'{what}' row has {len(row)} entries, expected {width}")
            rows.append(tuple(row))
        return rows

    rays = int_rows(data.get("rays", []), "rays", rank)
    cones = [tuple(c) for c in int_rows(data.get("max_cones", []), "max_cones", None)]

    def labelled(key: str) -> list:
        value = data.get(key, {})
        if not isinstance(value, dict):
            fail(f"'{key}' must be an object mapping labels to entries")
        return sorted(value.items())

    subgroups = {}
    for label, rows in labelled("subgroups"):
        _check_subgroup_label(path, None, label)
        subgroups[label] = tuple(int_rows(rows, f"subgroups.{label}", None))
    morphisms = {}
    for label, decl in labelled("morphisms"):
        if not isinstance(decl, dict) or "target" not in decl or "matrix" not in decl:
            fail(f"morphism '{label}' needs 'target' and 'matrix'")
        if not isinstance(decl["target"], str):
            fail(f"morphism '{label}' target must be a path string, got {decl['target']!r}")
        morphisms[label] = MorphismDecl(
            target_path=decl["target"],
            matrix_rows=tuple(int_rows(decl["matrix"], f"morphisms.{label}", None)),
        )
    return RawFanDocument(
        path=str(path), rank=rank, rays=rays,
        max_cones=cones, subgroups=subgroups, morphisms=morphisms,
    )


def read_fan_document(path) -> RawFanDocument:
    """Parse (but do not fan-validate) a document; sniffs JSON by '{'."""
    p = Path(path)
    try:
        blob = p.read_bytes()
    except OSError as e:
        raise FanFileError(path, None, f"cannot read file: {e.strerror or e}")
    text = blob.decode("utf-8", errors="replace")
    if text.lstrip()[:1] == "{":
        doc = read_fan_json(path, text)
    else:
        doc = read_fan_text(path, text)
    doc.digest = hashlib.sha256(blob).hexdigest()
    return doc


def validate_document(raw: RawFanDocument) -> FanDocument:
    """Fan-validate a raw document and re-index its subgroups canonically."""
    fan = validate_fan(raw.rank, raw.rays, raw.max_cones)
    return _reindexed(raw, fan)


def canonical_document(raw: RawFanDocument) -> FanDocument:
    """The document of :func:`validate_document` with its fan's geometry left
    unchecked: ``fan.canonical_fan`` and the subgroup-row check.

    When either finds a problem the document is validated in full instead,
    so it raises exactly what ``validate_document`` raises: a geometric
    problem comes before a malformed subgroup row.  The caller must certify
    the fan's geometry before relying on it, or validate it in full."""
    fan, problems = canonical_fan(raw.rank, raw.rays, raw.max_cones)
    if not problems:
        try:
            return _reindexed(raw, fan)
        except FanFileError:
            pass
    return validate_document(raw)


def _reindexed(raw: RawFanDocument, fan: Fan) -> FanDocument:
    """The document over ``fan``, the canonical fan of ``raw``, with each
    subgroup row checked and permuted to the canonical ray order."""
    # the canonical fan sorts its rays; subgroup columns follow the file's
    # ray order and must be permuted to match
    perm = [fan.rays.index(tuple(r)) for r in raw.rays]
    subgroups = {}
    for label, rows in raw.subgroups.items():
        fixed = []
        for row in rows:
            if len(row) != len(raw.rays):
                raise FanFileError(
                    raw.path, None,
                    f"subgroup '{label}' row has {len(row)} entries, "
                    f"expected {len(raw.rays)} (one per ray)",
                )
            out = [0] * len(raw.rays)
            for j, x in enumerate(row):
                out[perm[j]] = x
            fixed.append(tuple(out))
        subgroups[label] = tuple(fixed)
    return FanDocument(
        path=raw.path, fan=fan, subgroups=subgroups,
        morphisms=dict(raw.morphisms), digest=raw.digest,
    )


def parse_fan_file(path) -> FanDocument:
    """Read and fully validate a fan document."""
    return validate_document(read_fan_document(path))


def morphism_matrix(decl: MorphismDecl, target_rank: int, source_rank: int) -> IntMatrix:
    rows = decl.matrix_rows
    if len(rows) != target_rank or any(len(r) != source_rank for r in rows):
        raise ValueError(
            f"morphism matrix must be {target_rank}x{source_rank} "
            f"(target rank x source rank)"
        )
    return IntMatrix(rows, cols=source_rank)
