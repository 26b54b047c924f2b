"""Release benchmark for inftda.

    python3 perfbench/run.py --workload binary-complete --seed 0 --seconds 50 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory; it never edits the package. One process, one thread and
one closed-loop client: each operation starts when the previous one returns.
A run sets up the workload several times, then loops over the workload's
operation mix until ``--seconds`` have passed, setting up once more after
each cycle (``setup_s`` is the median of all set-ups),
checking every output outside its timed interval, and finally re-runs one
release with its original seed to confirm the digest repeats. Each timing
metric is the upper quartile of its op's samples (README.md says why).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from a traced run (see
``tracing.py``). Human-readable lines come first, and a JSON record with the
per-operation samples, digests and environment goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 50
SETUP_MIN_S = 1.0  # repeat cheap set-ups until this much time is measured
MIN_CYCLES = 3  # the leaf error metric averages exactly this many releases
TRACE_UNTRACED_SHARE = 1 / 3  # of --seconds, for the tracing-overhead baseline


def import_package():
    """Import inftda from this checkout's src/, and nothing else."""
    if not os.path.isdir(os.path.join(SRC, "inftda")):
        raise SystemExit(f"error: no package at {os.path.join(SRC, 'inftda')}; "
                         "run from the root of an inftda checkout")
    sys.path.insert(0, SRC)
    import inftda

    if os.path.dirname(os.path.dirname(os.path.abspath(inftda.__file__))) != SRC:
        raise SystemExit(f"error: imported inftda from {inftda.__file__}, not {SRC}")
    return inftda


# ---------------------------------------------------------------------------
# statistics


def tail(samples: List[float]) -> Optional[dict]:
    """Highest percentile with at least ten samples beyond it; None below 20
    samples, where that percentile would sit under the median."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11], "samples": n}


def describe(samples: List[float]) -> dict:
    """Sample count, median, quartiles (interpolated linearly between the
    closest ranks), extremes and tail of one op's timings."""
    if not samples:
        return {"samples": 0}
    q = (statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1
         else [samples[0]] * 3)
    return {"samples": len(samples), "median": statistics.median(samples), "q1": q[0],
            "q3": q[2], "min": min(samples), "max": max(samples), "tail": tail(samples)}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# the measured loop


class Run:
    """Samples, failures and digests of one benchmark run."""

    def __init__(self, wl, seed: int, derive_seed) -> None:
        self.wl = wl
        self.seed = seed
        self.derive_seed = derive_seed
        self.samples: Dict[str, List[float]] = {op.name: [] for op in wl.ops}
        self.cycle_s: List[float] = []
        self.quality: Dict[str, List[float]] = {op.name: [] for op in wl.ops if op.quality}
        self.digests: Dict[int, tuple] = {}
        self.op_names: List[str] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.next_op = 0

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    def run_op(self, op, ctx, tracer=None):
        """Time one operation, then check its output; returns (seconds, result)
        or None."""
        op_id = self.next_op
        self.next_op += 1
        self.op_names.append(op.name)
        self.attempted += 1
        seed = self.derive_seed(self.seed, "op", op_id)
        op.reset(ctx)
        gc.collect()
        if tracer is not None:
            tracer.op_id, tracer.active = op_id, True
        try:
            start = time.perf_counter()
            result = op.run(ctx, seed)
            elapsed = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            self.fail(f"op {op_id} {op.name}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            if tracer is not None:
                tracer.active = False
        try:
            problems = op.check(ctx, result)
            digest = op.digest(result)
        except Exception:  # noqa: BLE001
            problems, digest = [traceback.format_exc(limit=3)], None
        if problems:
            self.fail(f"op {op_id} {op.name} output check: {problems[0]}")
            return None
        self.digests[op_id] = (op.name, digest)
        return elapsed, result

    def cycles(self, ctx, seconds: float, min_cycles: int, tracer=None,
               between: Optional[Callable[[], None]] = None) -> int:
        """Loop over the op mix for ``seconds`` (whole cycles, at least ``min_cycles``
        unless that would take more than twice as long), calling ``between``
        after each cycle."""
        start = time.perf_counter()
        done = 0
        while True:
            elapsed = time.perf_counter() - start
            if done >= 1 and elapsed >= seconds and (done >= min_cycles or elapsed >= 2 * seconds):
                return done
            ctx.last_levels = None
            cycle = 0.0
            for op in self.wl.ops:
                for _ in range(op.samples):
                    outcome = self.run_op(op, ctx, tracer)
                    if outcome is None:
                        continue
                    dt, result = outcome
                    cycle += dt
                    self.samples[op.name].append(dt)
                    if op.quality is not None:
                        self.quality[op.name].append(op.quality(ctx, result))
            self.cycle_s.append(cycle)
            done += 1
            if between is not None:
                ctx.last_levels = None  # freed before ``between`` allocates
                between()

    def rerun_first_release(self, ctx, release_metric: str) -> None:
        """Re-run cycle 0's release with its seed; a different digest is a failure."""
        for op_id, (name, digest) in sorted(self.digests.items()):
            op = next(o for o in self.wl.ops if o.name == name)
            if op.metric != release_metric:
                continue
            self.attempted += 1
            try:
                again = op.digest(op.run(ctx, self.derive_seed(self.seed, "op", op_id)))
            except Exception:  # noqa: BLE001
                self.fail(f"determinism re-run of op {op_id}: {traceback.format_exc(limit=3)}")
                return
            if again != digest:
                self.fail(f"op {op_id} {name}: digest {again} != {digest} on a same-seed re-run")
            return


def timed_setup(wl, seed: int, workdir: str, tracer=None):
    gc.collect()
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    ctx = wl.setup(seed, workdir)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    return ctx, elapsed


def run_setup(wl, seed: int, workdir: str, tracer=None):
    times = []
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        ctx, elapsed = timed_setup(wl, seed, workdir, tracer)
        times.append(elapsed)
    return ctx, times


def spare_setup(wl, seed: int, workdir: str, times: List[float]) -> Callable[[], None]:
    """One more set-up, timed into ``times`` and then discarded. Run between
    cycles, these spread the set-up samples over the whole run, so that
    ``setup_s`` does not hang on the machine's speed in its first seconds."""
    spare = os.path.join(workdir, "spare")

    def setup_again() -> None:
        os.makedirs(spare, exist_ok=True)
        _, elapsed = timed_setup(wl, seed, spare)
        times.append(elapsed)
        shutil.rmtree(spare, ignore_errors=True)

    return setup_again


def benchmark(wl, seed: int, seconds: float, trace: bool, min_cycles: int = MIN_CYCLES,
              out_dir: str = OUT) -> dict:
    """One full run; returns the record that run.py prints and saves."""
    from inftda.dpcore import derive_seed

    import tracing
    import workloads

    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=out_dir)
    run = Run(wl, seed, derive_seed)
    record: dict = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        tracer = tracing.Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            ctx, setup_times = run_setup(wl, seed, workdir, tracer)
            wl.prepare(ctx)
            problems = workloads.check_shape(wl, ctx, seed)
            if problems:
                raise SystemExit(f"error: {problems[0]}")
            if tracer is None:
                run.cycles(ctx, seconds, min_cycles,
                           between=spare_setup(wl, seed, workdir, setup_times))
            else:
                record["trace_detail"] = traced_cycles(run, ctx, seconds, tracer, setup_times,
                                                       out_dir)
        finally:
            if tracer is not None:
                tracer.restore()
        run.rerun_first_release(ctx, workloads.RELEASE)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = {op.name: dict(describe(run.samples[op.name]), samples_per_cycle=op.samples,
                         values=run.samples[op.name]) for op in wl.ops}
    record.update({
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "setup": describe(setup_times),
        "cycles": len(run.cycle_s),
        "ops": ops,
        "quality": run.quality,
        "digests": {str(k): v for k, v in sorted(run.digests.items())},
        "op_seeds": [derive_seed(seed, "op", i) for i in range(run.next_op)],
        "peak_rss_mb": peak_rss_mb(),
    })
    if not trace:
        record["metrics"] = end_to_end(wl, ops, setup_times, run.quality, min_cycles)
    return record


def end_to_end(wl, ops: dict, setup_times: List[float], quality: Dict[str, List[float]],
               min_cycles: int) -> Dict[str, float]:
    import workloads

    def q3_of(metric: str) -> float:
        """The op's upper quartile; their sum where several ops feed one metric."""
        return sum(ops[op.name].get("q3", 0.0) for op in wl.ops if op.metric == metric)

    release_op = next(op.name for op in wl.ops if op.metric == workloads.RELEASE)
    accuracy = quality[release_op][:min_cycles]
    return {
        "setup_s": statistics.median(setup_times),
        workloads.RELEASE: q3_of(workloads.RELEASE),
        workloads.SH: q3_of(workloads.SH),
        workloads.EVAL: q3_of(workloads.EVAL),
        workloads.OTHER: q3_of(workloads.OTHER),
        "leaf_mean_abs_error.inftda": sum(accuracy) / len(accuracy) if accuracy else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_cycles(run: Run, ctx, seconds: float, tracer, setup_times: List[float],
                  out_dir: str) -> dict:
    """Untraced cycles first (the overhead baseline, with only the release
    per-level timing captured), then traced cycles; returns the trace detail."""
    import tracing
    import workloads

    tracer.restore()
    capture = tracing.Tracer()
    capture.install(only=tracing.group("release"))
    try:
        run.cycles(ctx, seconds * TRACE_UNTRACED_SHARE, 1, capture)
    finally:
        capture.restore()
    untraced_cycles = list(run.cycle_s)
    untraced_levels: Dict[str, List[list]] = {}
    for op_id, per_level in capture.releases:
        untraced_levels.setdefault(run.op_names[op_id], []).append(per_level)

    tracer.install()
    run.cycles(ctx, seconds * (1 - TRACE_UNTRACED_SHARE), 1, tracer)
    traced = run.cycle_s[len(untraced_cycles):]
    overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced_cycles) - 1.0)
    release_op = next(op.name for op in run.wl.ops if op.metric == workloads.RELEASE)
    values, missing = tracing.layer_metrics(tracer, len(traced), len(setup_times),
                                            untraced_levels.get(release_op, []), overhead)
    trace_path = os.path.join(out_dir, f"trace-{run.wl.name}.npz")
    tracer.save(trace_path, run.op_names)
    return {
        "metrics": values,
        "missing": missing,
        "untraced_cycle_s": untraced_cycles,
        "traced_cycle_s": traced,
        "overhead_pct": overhead,
        "spans": len(tracer.t0),
        "span_file": os.path.relpath(trace_path, ROOT),
        "depth_split": tracing.depth_split(tracer, run.op_names, untraced_levels),
    }


# ---------------------------------------------------------------------------
# entry point


def environment() -> dict:
    import numpy

    sources = hashlib.sha256()
    pkg = os.path.join(SRC, "inftda")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                sources.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metric_specs(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(record: dict, units: Dict[str, str]) -> dict:
    """Print the human-readable summary; return the result line's object."""
    values = record["trace_detail"]["metrics"] if record["trace"] else record["metrics"]
    unknown = set(values) ^ set(units)
    if unknown:
        raise SystemExit(f"error: metrics and BENCHMARK.json disagree on {sorted(unknown)}")
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"cycles {record['cycles']}  python {record['env']['python']}  "
          f"numpy {record['env']['numpy']}  nproc {record['env']['nproc']}")
    print(f"  setup: median {record['setup']['median']:.4f} s over {record['setup']['samples']} set-ups")
    for name, st in record["ops"].items():
        if not st["samples"]:
            print(f"  op {name}: no successful samples")
            continue
        t = st["tail"]
        tail_text = (f", p{t['percentile']:g} {t['value']:.4f} s (10 samples beyond)" if t
                     else ", tail n/a (fewer than 20 samples)")
        print(f"  op {name}: median {st['median']:.4f} s, IQR {st['q1']:.4f}-{st['q3']:.4f} s "
              f"over {st['samples']} samples{tail_text}")
    for name, figures in record["quality"].items():
        what = "leaf max |error|" if name.endswith("evaluate") else "leaf mean |error|"
        if figures:
            print(f"  {what} of {name}: mean {statistics.mean(figures):.4g} over {len(figures)}")
    print(f"  failure_rate {record['failed']}/{record['attempted']}")
    if record["trace"]:
        detail = record["trace_detail"]
        print(f"  tracing overhead {detail['overhead_pct']:.1f}% ({detail['spans']} spans "
              f"-> {detail['span_file']})")
        if detail["missing"]:
            print(f"  missing per-layer metrics (traced name gone): {', '.join(detail['missing'])}")
        for mech, rows in detail["depth_split"].items():
            print(f"  per-depth split of {mech} (ms per release, traced):")
            print("    depth  wall  untraced  substream  sampling  solve  child_keys  bookkeeping")
            for r in rows:
                plain = r["untraced_wall_ms"]
                print(f"    {r['depth']:>5} {r['wall_ms']:>5.0f} {plain if plain is None else round(plain):>9} "
                      f"{r['substream_ms']:>10.1f} {r['sampling_ms']:>9.1f} {r['solve_ms']:>6.1f} "
                      f"{r['child_keys_ms']:>11.1f} {r['bookkeeping_ms']:>12.1f}")
    for name in units:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned default)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = metric_specs(bool(args.trace))

    import_package()
    import workloads

    table = workloads.make_workloads()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(table)}")
    wl = table[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    record = benchmark(wl, seed, args.seconds, bool(args.trace))
    record["env"] = environment()
    line = report(record, units)
    path = os.path.join(OUT, f"{wl.name}-seed{seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
