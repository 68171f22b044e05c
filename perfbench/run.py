#!/usr/bin/env python3
"""Benchmark of the res112 command line, end to end and layer by layer.

Run from the root of a checkout (the program is built from ``src``, it need
not be installed):

    python3 perfbench/run.py --workload bifdiag --seed 1 --seconds 20 --trace 0

A run draws the workload's ops from ``--seed`` (see ``workloads.py``), times
how long a fresh interpreter takes to import ``res112.cli`` (``setup_s``,
median of SETUP_SAMPLES), runs one warm-up op, then runs passes over the
ops through ``res112.cli.main`` in this process until ``--seconds`` would
be exceeded (at least MIN_PASSES).  Every output is then checked with
``checker.py``: pass 0 in full, later passes by comparing their bytes with
pass 0.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
``wall_s`` is the time of one pass, taken as the sum over ops of each op's
median time across passes.  With ``--trace 1`` passes alternate untraced
and traced (``tracer.py``), and the last line reports the per-layer
metrics of one traced pass: counts as recorded, times as medians across
traced passes.  The line before it holds the machine, the raw failure and
bad-item ratios and examples of bad items.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 5
MIN_PASSES = {0: 3, 1: 2}
MAX_MEASURE_S = 120.0   # keeps a run of a much slower program under 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_ops_ratio": "ratio",
                    "good_items_ratio": "ratio"}
LAYER_METRICS = (
    ("bifurcations.a0_root", ("calls", "self_s", "distinct_ratio")),
    ("bifurcations.catalog_point", ("calls", "self_s", "raised_ratio")),
    ("bifurcations.solve_bifurcations_numeric", ("calls", "total_s")),
    ("critical_values.thread_segments", ("calls", "total_s", "distinct_ratio")),
    ("critical_values.critical_slice", ("calls", "total_s")),
    ("critical_values.minimum_crossing_loci", ("calls", "total_s")),
    ("reduced_dynamics.h_min", ("calls", "total_s")),
    ("reduced_dynamics.equilibria", ("calls", "self_s", "us_per_call")),
    ("reduced_space.tip_class", ("calls", "self_s")),
    ("critical_values.classify_fiber", ("calls", "self_s", "flagged_ratio")),
    ("monodromy.rotation_numbers", ("calls", "self_s", "calls_per_loop")),
    ("monodromy.monodromy_vector", ("calls", "total_s")),
    ("monodromy.generator_loop", ("calls", "total_s")),
    ("cli", ("self_s", "bytes_written")),
    ("trace", ("overhead_s",)),
)
LAYER_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "us_per_call": "us",
               "distinct_ratio": "ratio", "raised_ratio": "ratio",
               "flagged_ratio": "ratio", "calls_per_loop": "count",
               "bytes_written": "bytes", "overhead_s": "s"}


def scrub_environment() -> None:
    """The CLI reads RES112_* through click's auto_envvar_prefix; BLAS and
    OpenMP pools would add threads.  Must run before numpy is imported."""
    for key in [k for k in os.environ if k.startswith("RES112_")]:
        del os.environ[key]
    for key in THREAD_VARS:
        os.environ[key] = "1"


def machine() -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "machine": platform.machine(), "system": platform.system()}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing res112.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import res112.cli"], env=env,
                       check=True, capture_output=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class OpRun:
    code: int | None
    error: str | None   # exception that escaped the entry point
    seconds: float
    stdout: str


def run_op(cli_main, argv: list[str]) -> OpRun:
    """Invoke the CLI entry point in this process, as ``res112 <argv>``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["res112", *argv]
    code, error = None, None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli_main()
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - an op that raised is a failed op
                error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = perf_counter() - t0
        sys.argv = saved
    if code != 0 and error is None:
        error = err.getvalue().strip()[-300:]
    return OpRun(code=code, error=error, seconds=seconds, stdout=out.getvalue())


def run_pass(cli_main, ops, outdir: Path, tracer=None) -> list[OpRun]:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    runs = []
    for i, op in enumerate(ops):
        argv = [*op.argv, "--out", str(outdir / f"op{i}")] if op.files else list(op.argv)
        if tracer is not None:
            tracer.start_op(i)
        try:
            runs.append(run_op(cli_main, argv))
        finally:
            if tracer is not None:
                tracer.end_op()
    return runs


def output_bytes(op, outdir: Path, i: int, run: OpRun) -> list[bytes]:
    if not op.files:
        return [run.stdout.encode()]
    blobs = []
    for suffix in op.files:
        try:
            blobs.append((outdir / f"op{i}_{suffix}").read_bytes())
        except OSError:
            blobs.append(b"<missing>")
    return blobs


def digest(op, outdir: Path, i: int, run: OpRun) -> str:
    h = hashlib.sha256(repr((run.code, run.error)).encode())
    for blob in output_bytes(op, outdir, i, run):
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def verify(ops, outdir: Path, runs: list[OpRun], checker):
    """Check one pass in full: (failure reason or None per op, item tally)."""
    tally = checker.Tally()
    reasons: list[str | None] = []
    loops = []
    for i, (op, run) in enumerate(zip(ops, runs)):
        reason = None
        if run.error is not None or run.code != 0:
            reason = f"exit {run.code}: {run.error}"
        else:
            try:
                kind = op.spec["kind"]
                if kind == "bifdiag":
                    tally.merge(checker.check_bifdiag(outdir / f"op{i}", op.spec))
                elif kind == "critvals":
                    tally.merge(checker.check_critvals(outdir / f"op{i}", op.spec, op.files))
                else:
                    result = checker.parse_monodromy(run.stdout)
                    tally.merge(checker.check_monodromy_loop(result, op.spec))
                    loops.append((op.spec, result))
            except checker.Malformed as exc:
                reason = f"malformed output: {exc}"
        reasons.append(reason)
    tally.merge(checker.check_monodromy_sums(loops))
    return reasons, tally


@dataclass
class Measurement:
    times: dict                 # traced? -> per op -> seconds of each pass
    first_runs: list            # runs of pass 0, whose outputs are kept
    mismatches: list            # per later pass: op output differs from pass 0?
    summaries: list             # per traced pass: tracer.summarize()
    spans: list                 # spans of the first traced pass
    bytes_written: int          # output bytes of one pass


def measure(cli_main, ops, seconds: float, traced: bool) -> Measurement:
    """Run passes until the next one would end after ``seconds``.

    Pass 0 keeps its outputs for the full check; every later pass is
    compared with it byte for byte.  In a traced run each round is an
    untraced pass followed by a traced one.
    """
    from tracer import Tracer, summarize

    m = Measurement({False: [[] for _ in ops], True: [[] for _ in ops]},
                    [], [], [], [], 0)
    reference = None
    start, longest, rounds = perf_counter(), 0.0, 0
    while True:
        ahead = perf_counter() - start + longest
        if ahead > seconds and (rounds >= MIN_PASSES[traced] or ahead > MAX_MEASURE_S):
            break
        t_round = perf_counter()
        for use_trace in ((False, True) if traced else (False,)):
            outdir = WORK / ("p0" if reference is None else "pn")
            tracer = Tracer() if use_trace else None
            with tracer or nullcontext():
                runs = run_pass(cli_main, ops, outdir, tracer)
            for i, run in enumerate(runs):
                m.times[use_trace][i].append(run.seconds)
            digests = [digest(op, outdir, i, run) for i, (op, run) in enumerate(zip(ops, runs))]
            if reference is None:
                m.first_runs, reference = runs, digests
                m.bytes_written = sum(len(b) for i, (op, run) in enumerate(zip(ops, runs))
                                      for b in output_bytes(op, outdir, i, run))
            else:
                m.mismatches.append([a != b for a, b in zip(digests, reference)])
            if tracer is not None:
                m.summaries.append(summarize(tracer.spans))
                m.spans = m.spans or tracer.spans
        longest = max(longest, perf_counter() - t_round)
        rounds += 1
    return m


def wall(op_times) -> float:
    return sum(statistics.median(t) for t in op_times)


def layer_metrics(summaries, times, bytes_written) -> tuple[dict, bool]:
    """Per-layer metrics of one traced pass, and whether the counts repeated
    exactly across the traced passes."""
    def counts(s):
        return {k: (v["calls"], v["raised"], len(set(v["notes"])), v["notes"].count(True))
                for k, v in s.items()}

    repeat = all(counts(s) == counts(summaries[0]) for s in summaries[1:])
    first = summaries[0]

    def rec(label):
        return first.get(label, {"calls": 0, "raised": 0, "notes": []})

    def med(label, key):
        return statistics.median(s[label][key] if label in s else 0.0 for s in summaries)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for label, names in LAYER_METRICS:
        r = rec(label)
        for name in names:
            if name == "calls":
                v = r["calls"]
            elif name in ("self_s", "total_s"):
                v = med(label, name)
            elif name == "distinct_ratio":
                v = ratio(len(set(r["notes"])), r["calls"])
            elif name == "raised_ratio":
                v = ratio(r["raised"], r["calls"])
            elif name == "flagged_ratio":
                v = ratio(r["notes"].count(True), r["calls"])
            elif name == "us_per_call":
                v = ratio(1e6 * med(label, "total_s"), r["calls"])
            elif name == "calls_per_loop":
                v = ratio(r["calls"], rec("monodromy.monodromy_vector")["calls"])
            elif name == "bytes_written":
                v = bytes_written
            else:  # trace.overhead_s
                v = wall(times[True]) - wall(times[False])
            out[f"{label}.{name}"] = {"value": v, "unit": LAYER_UNITS[name]}
    return out, repeat


def write_spans(spans, path: Path) -> None:
    with path.open("w") as fh:
        for sid, parent, label, op, t0, t1, raised, _ in sorted(spans):
            fh.write(json.dumps({"id": sid, "parent": parent, "name": label, "op": op,
                                 "start": t0, "end": t1, "raised": raised}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "res112" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2

    scrub_environment()
    sys.path.insert(0, str(SRC))
    import checker
    import res112.cli
    import workloads
    if Path(res112.cli.__file__).resolve().parent != SRC / "res112":
        print(f"error: imported res112 from {res112.cli.__file__}", file=sys.stderr)
        return 2

    warm, ops = workloads.build(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup()
    shutil.rmtree(WORK, ignore_errors=True)
    warm_runs = run_pass(res112.cli.main, [warm], WORK / "warm")
    m = measure(res112.cli.main, ops, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    warm_reasons, _ = verify([warm], WORK / "warm", warm_runs, checker)
    reasons, tally = verify(ops, WORK / "p0", m.first_runs, checker)
    failures = [r for r in warm_reasons + reasons if r]
    failed = len(failures)
    for row in m.mismatches:
        failed += sum(differs or bool(r) for differs, r in zip(row, reasons))
    attempted = 1 + len(ops) * (1 + len(m.mismatches))
    correct = failed == 0 and tally.bad == tally.bad_known

    wall_s = wall(m.times[False])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(),
        "passes": len(m.times[False][0]), "traced_passes": len(m.times[True][0]),
        "ops": [" ".join(op.argv) for op in ops],
        "op_seconds": m.times[False],
        "items_per_pass": sum(op.items for op in ops),
        "failed_ops_ratio": failed / attempted,
        "bad_items_ratio": tally.bad / tally.checked if tally.checked else 0.0,
        "items_checked": tally.checked, "bad_items": tally.bad,
        "bad_items_known_defect": tally.bad_known,
        "bad_item_examples": tally.examples,
        "failures": failures[:5], "nondeterministic_ops": sum(map(sum, m.mismatches)),
        "wait_s": "none: the program runs in one process and one thread",
    }
    if args.trace:
        metrics, repeat = layer_metrics(m.summaries, m.times, m.bytes_written)
        correct = correct and repeat
        info["counts_repeat_across_traced_passes"] = repeat
        info["spans_file"] = str((WORK / "spans.jsonl").relative_to(HERE.parent))
        write_spans(m.spans, WORK / "spans.jsonl")
    else:
        values = {
            "setup_s": setup_s, "wall_s": wall_s,
            "items_per_s": info["items_per_pass"] / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_ops_ratio": 1.0 - info["failed_ops_ratio"],
            "good_items_ratio": 1.0 - info["bad_items_ratio"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
