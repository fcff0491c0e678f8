"""Time-to-verdict benchmark for toriclift.

    python3 perfbench/run.py --workload lift|iso|present --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process, one client, no
threads: a closed loop that asks the seeded questions of one workload through
``toriclift.cli.main(argv)`` in-process, each question waiting for the
previous one.

A run sets up (imports toriclift, generates and writes the seeded fan files)
several times and reports the median as ``setup_s``; asks every question once
as a warm-up and checks each answer against the table in ``answers.py``;
then repeats passes over the questions until ``--seconds`` have passed (the
last pass stops at the deadline; traced runs finish it), requiring every
report to be byte-identical to its warm-up report; finally asks the pinned
defect probes once, untimed.  Per-question times also go to
``.perfbench_out/times-<workload>-<seed>.json``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Latencies
are per-question medians over the timed passes; ``verdict_ms.tail`` is the
highest percentile with at least 10 questions beyond it.

Times are adjusted for the speed of the host.  Before every timed question
the run also times ``reference_work()``, a fixed integer elimination that
does not touch toriclift; every time metric is divided by the run's
slowdown, the median reference time over ``REFERENCE_MS``.  The host this
benchmark was built on changes speed by up to 50% in phases of seconds to
minutes, which moved raw medians of whole runs by more than the bounds;
a change to toriclift still moves the adjusted figures in full, because the
reference does not run any of its code.  The raw figures and the slowdown
are printed beside the adjusted ones.

``--trace 1`` alternates untraced passes with passes traced by ``spans.py``
and prints the per-layer metrics of BENCHMARK.json, per traced pass; the
span log goes to ``.perfbench_out/``.  Every metric is also printed by name
with its unit before the last line, which is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import corpus  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 9
TAIL_BEYOND = 10
REFERENCE_MS = 0.17  # median time of reference_work() when the host runs at full speed
_REFERENCE_MATRIX = [[(7 * i * i + 3 * j + 5 * i * j) % 19 - 9 + 25 * (i == j) for j in range(14)]
                     for i in range(14)]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_toriclift():
    """Import toriclift from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "toriclift" / "cli.py").is_file():
        fail(f"no toriclift sources under {src}; run from the root of a checkout")
    for name in [m for m in sys.modules if m == "toriclift" or m.startswith("toriclift.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    cli = importlib.import_module("toriclift.cli")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        fail(f"imported toriclift from {cli.__file__}, not from {src}")
    return cli


def reference_work() -> int:
    """Fraction-free (Bareiss) elimination of a fixed 14 x 14 integer matrix:
    exact integer work of the kind toriclift does, in the benchmark's own code."""
    a = [row[:] for row in _REFERENCE_MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def ask(cli, argv: list[str]) -> tuple[tuple[int, str, str], float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return (code, out.getvalue(), err.getvalue()), elapsed


class Context:
    """What a checker may use beyond the report: ``split`` of a fan file."""

    def __init__(self, cli):
        self.cli = cli

    def split(self, path: str) -> str:
        (code, out, _), _ = ask(self.cli, ["split", path])
        return out if code == 0 else ""


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest integer percentile (nearest rank) with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    fail(f"{n} questions are too few for a tail percentile")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec, work: Path) -> int:
    setups = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_toriclift()
        questions = corpus.build(args.workload, args.seed, work / f"setup{i}")
        setups.append(time.perf_counter() - start)
    setup_s = statistics.median(setups)

    # warm-up pass: the reference reports, checked against the answer table
    ctx = Context(cli)
    reference = {}
    wrong = {}
    for q in questions:
        reference[q.qid], _ = ask(cli, q.argv)
        code, out, _ = reference[q.qid]
        problems = answers.check(q, code, out, ctx)
        if problems:
            wrong[q.qid] = problems
    attempted = len(questions)
    failed = len(wrong)
    mismatched: dict[str, int] = {}

    tracer = Tracer() if args.trace else None
    times = {q.qid: [] for q in questions}
    reference_times: list[float] = []
    pass_seconds = {False: [], True: []}
    deadline = time.monotonic() + args.seconds
    n_pass = 0
    while True:
        traced = bool(tracer) and n_pass % 2 == 1
        if traced:
            tracer.install()
        gc.collect()
        total = 0.0
        for q in questions:
            # untraced runs stop at the deadline once every question has a time
            if not tracer and n_pass and time.monotonic() >= deadline:
                break
            if tracer:
                tracer.question = q.qid
            else:
                start = time.perf_counter()
                reference_work()
                reference_times.append(time.perf_counter() - start)
            result, elapsed = ask(cli, q.argv)
            total += elapsed
            if not traced:
                times[q.qid].append(elapsed)
            attempted += 1
            if q.qid in wrong or result != reference[q.qid]:
                failed += 1
                if result != reference[q.qid]:
                    mismatched[q.qid] = mismatched.get(q.qid, 0) + 1
        if traced:
            tracer.uninstall()
        pass_seconds[traced].append(total)
        n_pass += 1
        if time.monotonic() >= deadline and (not tracer or n_pass >= 2):
            break

    probes = corpus.probe_questions(work / "probes")
    open_defects = []
    for q in probes:
        (code, out, _), _ = ask(cli, q.argv)
        if answers.check(q, code, out, ctx):
            open_defects.append(q.qid)

    for qid, problems in wrong.items():
        print(f"wrong answer {qid}: {'; '.join(problems)}", file=sys.stderr)
    for qid, count in mismatched.items():
        print(f"report of {qid} differed from its warm-up report in {count} pass(es)", file=sys.stderr)

    n_q = len(questions)
    print(f"workload {args.workload} seed {args.seed}: {n_q} questions, "
          f"{len(pass_seconds[False])} untraced and {len(pass_seconds[True])} traced timed passes")
    print("pass seconds: " + " ".join(
        f"{'traced ' if traced else ''}{t:.3f}" for traced in (False, True) for t in pass_seconds[traced]))
    shown = {
        "failed_ratio": (failed / attempted, "ratio", f"{failed}/{attempted} question runs"),
        "defects_open": (len(open_defects), "count", ", ".join(open_defects) or "none"),
    }
    if tracer:
        metrics = layer_metrics(tracer, len(pass_seconds[True]), pass_seconds, len(open_defects))
        attribution(args.workload, metrics, n_q, tracer, len(pass_seconds[True]))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        wanted = spec["per_layer"]
    else:
        medians = [statistics.median(ts) for ts in times.values()]
        p, tail = tail_percentile(medians)
        timed = sum(len(ts) for ts in times.values())
        raw = {
            "setup_s": setup_s,
            "verdict_ms.p50": statistics.median(medians) * 1000.0,
            "verdict_ms.tail": tail * 1000.0,
            "questions_per_s": timed / sum(pass_seconds[False]),
        }
        slowdown = statistics.median(reference_times) * 1000.0 / REFERENCE_MS
        print(f"host slowdown {slowdown:.4f} (reference work {statistics.median(reference_times) * 1000.0:.4f} ms, "
              f"{REFERENCE_MS} ms at full speed)")
        metrics = {k: v * slowdown if k == "questions_per_s" else v / slowdown for k, v in raw.items()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for k, v in raw.items():
            shown[k] = (None, None, f"raw {v:.6g}")
        shown["verdict_ms.tail"] = (None, None, f"p{p} of {n_q} per-question medians, "
                                                f"raw {raw['verdict_ms.tail']:.6g}")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"times-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"reference_work": reference_times,
                        "questions": {q.qid: [q.klass, times[q.qid]] for q in questions}}),
            encoding="utf-8")
        wanted = spec["end_to_end"]
    for m in wanted:
        note = shown.pop(m["name"], (None, None, ""))[2]
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    for name, (value, unit, note) in shown.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def layer_metrics(tracer: Tracer, n_traced: int, pass_seconds, defects: int) -> dict[str, float]:
    """Per traced pass; a function that never ran reads 0."""
    summary = tracer.summary()
    metrics = defaultdict(float, {
        k: (v if k.endswith(".max_cells") else v / n_traced) for k, v in summary.items()})
    metrics["trace.overhead_ratio"] = (
        statistics.mean(pass_seconds[True]) / statistics.mean(pass_seconds[False]))
    metrics["defects_open"] = defects
    return metrics


def attribution(workload: str, m: dict[str, float], n_questions: int,
                tracer: Tracer, n_traced: int) -> None:
    """Print whether the workload loads the layer it was chosen for."""
    def leaders(suffix: str) -> list[str]:
        names = [k[: -len(suffix)] for k in m if k.endswith(suffix) and k.count(".") == 2]
        return sorted(names, key=lambda f: m[f + suffix], reverse=True)

    for suffix in (".self_ms", ".total_ms"):
        print(f"leaders by {suffix[1:]}: " + ", ".join(
            f"{f} {m[f + suffix]:.1f} ms" for f in leaders(suffix)[:5]))
    if workload == "lift":
        ok = leaders(".self_ms")[0] == "lattice.smith_normal_form"
        print(f"attribution lift: smith_normal_form has the largest self time: {'yes' if ok else 'no'}")
    elif workload == "iso":
        print(f"attribution iso: fan.validate_fan calls per question: "
              f"{m['fan.validate_fan.calls'] / n_questions:.2f}")
    else:
        parent = "presentation.presentation_from_subgroup"
        below = tracer.beneath(parent)
        top = sorted(below, key=below.get, reverse=True)
        print(f"inclusive time beneath {parent}: " + ", ".join(
            f"{f} {below[f] / n_traced:.1f} ms" for f in top[:4]))
        ok = set(top[:2]) == {"presentation.exceptional_collections", "divisors.enough_divisors"}
        print(f"attribution present: exceptional_collections and enough_divisors lead: "
              f"{'yes' if ok else 'no'}")


if __name__ == "__main__":
    raise SystemExit(main())
