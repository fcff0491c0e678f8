"""sha256 of every perfbench report, one line per question, for diffing trees.

    python3 tests/report_hashes.py --corpus DIR [--root CHECKOUT] [--seeds 1,801-810]

For each workload of ``perfbench/corpus.py`` (``lift``, ``iso``, ``present``)
and each seed, the corpus is written under ``DIR/<workload>-<seed>``, plus
the pinned probes under ``DIR/probes``; every question is asked once through
``toriclift.cli.main`` in-process with ``--out DIR/report.json``, and the
line ``<workload> <seed> <qid> <sha256>`` hashes its exit code, stdout,
stderr and JSON report.  The ``iso-errors`` job (seed 0, files under
``DIR/iso-errors``) asks ``iso VALID INVALID`` for each invalid shape of
``corpus.INVALID``, against a valid fan of the same counts (``_partners``),
so that the hashes cover the errors of an invalid second file.  Reports
print the paths of their inputs, so hash two checkouts with the same
``DIR`` and compare the outputs with ``diff``.
``CHECKOUT`` (default: the checkout holding this script) supplies both
``src/toriclift`` and ``perfbench/corpus.py``, which is only read.
Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _partners(corpus) -> dict:
    """A valid fan per shape of ``corpus.INVALID``, with its rank, ray count
    and max-cone count where a valid fan has them, so that the isomorphism
    search runs before the second file is found invalid.  No rank-2 max cone
    holds three rays, so the one-cone shapes on three rays get two cones,
    and the pair is refused by its counts.  A new invalid shape needs an
    entry here."""
    quadrants = corpus.Shape(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (2, 3)))
    chain = corpus.Shape(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    return {"overlap": quadrants, "line_in_cone": chain, "not_primitive": corpus.plane(),
            "not_extreme": chain, "nested_cones": chain}


def iso_error_questions(corpus, directory: Path) -> list:
    """``iso VALID INVALID`` for each shape of ``corpus.INVALID``."""
    directory.mkdir(parents=True, exist_ok=True)
    partners = _partners(corpus)
    questions = []
    for name, shape in corpus.INVALID.items():
        valid, invalid = directory / f"valid-{name}.fan", directory / f"{name}.fan"
        valid.write_text(corpus.fan_text(partners[name]), encoding="utf-8")
        invalid.write_text(corpus.fan_text(shape), encoding="utf-8")
        questions.append(corpus.Question(f"iso-errors.{name}", "iso-errors",
                                         ["iso", str(valid), str(invalid)]))
    return questions


def report_hash(cli, argv: list[str], out_json: Path) -> str:
    out_json.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out_json)])
    report = out_json.read_bytes() if out_json.exists() else b""
    h = hashlib.sha256()
    for part in (str(code).encode(), stdout.getvalue().encode(), stderr.getvalue().encode(), report):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", required=True, type=Path, help="directory for the corpus files")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/toriclift and perfbench/corpus.py are used")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1,801-810"),
                    help="comma-separated seeds and ranges (default 1,801-810)")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import corpus
    from toriclift import cli

    directory = args.corpus.resolve()
    out_json = directory / "report.json"
    jobs = [(w, s, corpus.build(w, s, directory / f"{w}-{s}"))
            for w in corpus.WORKLOADS for s in args.seeds]
    jobs.append(("probe", 0, corpus.probe_questions(directory / "probes")))
    jobs.append(("iso-errors", 0, iso_error_questions(corpus, directory / "iso-errors")))
    for workload, seed, questions in jobs:
        for q in questions:
            print(workload, seed, q.qid, report_hash(cli, q.argv, out_json))
    out_json.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
