"""End-to-end benchmark of the boostkit CLI, with an optional traced run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload clf-20k --seed 1 --seconds 34 --trace 0

The run generates its workload's CSV inputs from ``--seed``, imports
boostkit from ``src/``, and drives ``boostkit.cli.main(argv)`` closed-loop:
one caller, one call at a time, in this one process, with BLAS/OpenMP
threads pinned to 1. It repeats the workload's ops in passes for about
``--seconds`` (at least two passes), checks every op's outputs, and reports
per-op medians.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates plain
passes with traced ones, reports the per-layer metrics of the traced passes
and the tracing overhead, and writes the spans to a JSON-lines file.

Human-readable ``name value unit`` lines come first; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics. A full record (environment, every op time, digests) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere, or the pools are already sized.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, OpResult, Workload, write_inputs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

MIN_PASSES = 2  # repeats needed to compare output digests within a run
# Import + inputs are timed at least SETUP_MIN_REPEATS times and until they
# have taken SETUP_MIN_SECONDS in all (at most SETUP_MAX_REPEATS); setup_s is
# the median. Sub-second set-ups get many repeats, the slow one few.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 25


class SourceMissing(Exception):
    pass


def import_cli():
    """Import boostkit.cli afresh from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "boostkit" / "cli.py").is_file():
        raise SourceMissing(f"no boostkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "boostkit" or n.startswith("boostkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("boostkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SourceMissing(f"boostkit was imported from {cli.__file__}, not {src}")
    return cli


@dataclass
class OpRun:
    seconds: float
    rc: int
    problems: list[str]
    digests: dict[str, str]
    # The process's peak RSS in MB after the CLI call and after its check.
    rss_after_cli_mb: float = 0.0
    rss_after_check_mb: float = 0.0


@dataclass
class Pass:
    traced: bool
    runs: list[OpRun] = field(default_factory=list)


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def peak_rss_mb() -> float:
    """The high-water mark of this process's resident set, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(cli, op, workdir: Path, tracer: tracing.Tracer | None, op_id: int) -> OpRun:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(list(op.argv))
            else:
                rc = tracer.span(f"cli.{op.argv[0]}", op_id, cli.main, list(op.argv))
        except Exception:  # the op fails; the benchmark carries on and counts it
            rc = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    rss_cli = peak_rss_mb()
    if rc != 0:
        return OpRun(seconds, rc, [f"exit code {rc}: {err.getvalue().strip()[-500:]}"], {},
                     rss_cli, rss_cli)
    problems: list[str] = []
    digests: dict[str, str] = {}
    try:
        problems += op.check(OpResult(out.getvalue(), str(workdir)))
        digests = {name: _sha256(workdir / name) for name in op.artifacts}
    except (OSError, ValueError, IndexError, KeyError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
    if op.stdout_is_artifact:
        digests[f"{op.metric}.stdout"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return OpRun(seconds, rc, problems, digests, rss_cli, peak_rss_mb())


def mark_digest_mismatches(ops, passes: list[Pass]) -> None:
    """An op whose digests differ from its first repeat's has failed."""
    for i, op in enumerate(ops):
        first = passes[0].runs[i].digests
        for p in passes[1:]:
            run = p.runs[i]
            if run.digests and first and run.digests != first:
                changed = sorted(k for k in first if run.digests.get(k) != first[k])
                run.problems.append(f"{op.metric}: output digests differ between repeats: {changed}")


def run_passes(cli, ops, workdir: Path, seconds: float, trace: bool):
    """At least MIN_PASSES passes, then more while another pass of average
    length still ends within ``seconds``; with ``trace``, plain and traced
    passes alternate, plain first."""
    traced_spans: list[list[tuple]] = []
    traced_counters: list[dict] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
    ):
        traced = trace and len(passes) % 2 == 1
        p = Pass(traced)
        tracer = tracing.Tracer() if traced else None
        if traced:
            tracing.install(tracer)
        try:
            for op_id, op in enumerate(ops):
                p.runs.append(run_op(cli, op, workdir, tracer, op_id))
        finally:
            if traced:
                tracer.uninstall()
                traced_spans.append(tracer.spans)
                traced_counters.append(dict(tracer.counters))
        passes.append(p)
    mark_digest_mismatches(ops, passes)
    return passes, traced_spans, traced_counters


def failed_ops(passes: list[Pass]) -> int:
    return sum(bool(r.problems) for p in passes for r in p.runs)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src = ROOT / "src" / "boostkit"
    source = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "seed": seed,
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
    }


def _commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def op_medians(ops, passes: list[Pass]) -> list[float]:
    return [statistics.median(p.runs[i].seconds for p in passes) for i in range(len(ops))]


def end_to_end(ops, passes: list[Pass], setup_s: float) -> dict[str, tuple[float, str]]:
    med = op_medians(ops, passes)
    metrics = {
        "total_s": (sum(med), "s"),
        "train_s": (sum(t for t, op in zip(med, ops) if op.trains), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for t, op in zip(med, ops):
        metrics[op.metric] = (op.items / t, "1/s") if op.items else (t, "s")
    return metrics


def per_layer(ops, passes, spans, counters) -> dict[str, tuple[float, str]]:
    """Median over traced passes of each layer metric, plus the overhead."""
    per_pass = [tracing.layer_metrics(s, c) for s, c in zip(spans, counters)]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    plain = sum(op_medians(ops, [p for p in passes if not p.traced]))
    traced = sum(op_medians(ops, [p for p in passes if p.traced]))
    share = overhead_share(passes)
    metrics["trace.untraced_total_s"] = (plain, "s")
    metrics["trace.traced_total_s"] = (traced, "s")
    metrics["trace.overhead_share"] = (share, "ratio")
    metrics["trace.overhead_s"] = (share * plain, "s")
    metrics["trace.spans_per_pass"] = (float(statistics.median(len(s) for s in spans)), "count")
    return metrics


def overhead_share(passes: list[Pass]) -> float:
    """Median over ops and pass pairs of (traced - plain) / plain, where each
    traced pass is paired with the plain pass just before it. Pairing one op
    with its neighbour absorbs the machine's drift over a run; the median
    over every op keeps one slow call from setting the figure."""
    shares = [
        t.seconds / p.seconds - 1.0
        for before, after in zip(passes, passes[1:])
        if after.traced and not before.traced
        for p, t in zip(before.runs, after.runs)
    ]
    return statistics.median(shares)


def rss_record(setup_mb: float, ops, passes: list[Pass]) -> dict:
    """Where the peak RSS was reached: in set-up, in a CLI call, or in a
    check. The checks stream their files so that they never raise it;
    ``raised_by_checks_mb`` is how much they did."""
    runs = [(op.metric, r) for p in passes for op, r in zip(ops, p.runs)]
    peak, reached_in, raised = setup_mb, "setup", 0.0
    for metric, r in runs:
        if r.rss_after_cli_mb > peak:
            peak, reached_in = r.rss_after_cli_mb, metric
        if r.rss_after_check_mb > peak:
            raised += r.rss_after_check_mb - peak
            peak, reached_in = r.rss_after_check_mb, f"check of {metric}"
    return {"after_setup_mb": setup_mb, "peak_mb": peak, "reached_in": reached_in,
            "raised_by_checks_mb": raised}


def outputs_identical(workload: str, seed: int, first: Pass, reference: dict):
    """Digests of the first pass against the stored ones for this seed:
    True, False, or None when none are stored for it."""
    stored = reference.get("digests", {}).get(workload, {}).get(str(seed))
    if stored is None:
        return None, []
    got = {k: v for run in first.runs for k, v in run.digests.items()}
    return got == stored, sorted(k for k in set(stored) | set(got) if stored.get(k) != got.get(k))


def run(workload: Workload, seed: int, seconds: float, trace: bool, reference: dict,
        out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the full record (see module docstring)."""
    workdir = out_dir / f"work-{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        while len(setups) < SETUP_MIN_REPEATS or (
            sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS
        ):
            gc.collect()
            start = time.perf_counter()
            cli = import_cli()
            write_inputs(workload, seed, str(workdir))
            setups.append(time.perf_counter() - start)
        setup_s = statistics.median(setups)
        setup_rss = peak_rss_mb()

        ops = workload.ops(str(workdir), workload.size, reference)
        passes, spans, counters = run_passes(cli, ops, workdir, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = per_layer(ops, passes, spans, counters)
        span_file = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
        tracing.write_spans(str(span_file), spans)
    else:
        metrics = end_to_end(ops, passes, setup_s)
        span_file = None
    runs = [r for p in passes for r in p.runs]
    identical, differing = outputs_identical(workload.name, seed, passes[0], reference)
    return {
        "workload": workload.name,
        "trace": trace,
        "environment": environment(seed),
        "setup_repeats": len(setups),
        "rss": rss_record(setup_rss, ops, passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": len(runs),
        "ops_failed": failed_ops(passes),
        "problems": [p for r in runs for p in r.problems],
        "passes": [{"traced": p.traced, "op_seconds": {op.metric: r.seconds for op, r in zip(ops, p.runs)}}
                   for p in passes],
        "digests": {k: v for r in passes[0].runs for k, v in r.digests.items()},
        "outputs_identical": identical,
        "outputs_differing": differing,
        "span_file": os.path.relpath(span_file, ROOT) if span_file else None,
    }


def report_lines(record: dict) -> list[str]:
    """Human-readable summary: every metric as ``name value unit``."""
    lines = [
        f"workload {record['workload']} seed {record['environment']['seed']} "
        f"trace {int(record['trace'])} passes {len(record['passes'])}",
        "environment " + json.dumps(record["environment"], sort_keys=True),
    ]
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in record["metrics"].items()]
    lines += [f"ops {record['ops']} count", f"ops_failed {record['ops_failed']} count"]
    lines += [f"failed: {problem}" for problem in record["problems"]]
    rss = record["rss"]
    lines.append(f"peak_rss reached in {rss['reached_in']}; after set-up "
                 f"{rss['after_setup_mb']:.1f} MB; checks raised it by {rss['raised_by_checks_mb']:.1f} MB")
    lines.append(f"outputs_identical {json.dumps(record['outputs_identical'])} "
                 f"{json.dumps(record['outputs_differing'])}")
    if record["span_file"]:
        lines.append(f"spans written to {record['span_file']}")
    return lines


def result(record: dict, names: list[str]) -> dict:
    """The last output line: the declared metrics of this kind of run."""
    return {
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops"],
        "failed": record["ops_failed"],
        "metrics": {n: record["metrics"][n] for n in names},
    }


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     load_reference())
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    names = load_metric_names(bool(args.trace))
    print("\n".join(report_lines(record)))
    print(json.dumps(result(record, names)))
    return 0


def load_metric_names(trace: bool) -> list[str]:
    """The metric names BENCHMARK.json declares for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
