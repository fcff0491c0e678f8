"""sha256 of every perfbench report, one line per question, for diffing trees.

    python3 tests/report_hashes.py --corpus DIR [--root CHECKOUT] [--seeds 1,801-810]

For each workload of ``perfbench/corpus.py`` (``lift``, ``iso``, ``present``)
and each seed, the corpus is written under ``DIR/<workload>-<seed>``, plus
the pinned probes under ``DIR/probes``; every question is asked once through
``toriclift.cli.main`` in-process with ``--out DIR/report.json``, and the
line ``<workload> <seed> <qid> <sha256>`` hashes its exit code, stdout,
stderr and JSON report.  Reports print the paths of their inputs, so hash
two checkouts with the same ``DIR`` and compare the outputs with ``diff``.
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
    for workload, seed, questions in jobs:
        for q in questions:
            print(workload, seed, q.qid, report_hash(cli, q.argv, out_json))
    out_json.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
