"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, on tiny instances for a fraction of
a second and checks that each names every workload and metric of
BENCHMARK.json with its unit and reports no failure. Then it injects a
negative leaf into a copy of a release and checks that the run counts it as
a failed operation. Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys

import run


def toy_run(wl, trace: bool, out_dir: str) -> tuple:
    units = run.metric_specs(trace)
    record = run.benchmark(wl, wl.default_seed, 0.2, trace, min_cycles=1, out_dir=out_dir)
    record["env"] = run.environment()
    with contextlib.redirect_stdout(io.StringIO()):
        line = run.report(record, units)
    return record, line, units


def check_emits_everything(workloads, out_dir: str) -> None:
    with open(run.BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    named = {w["name"] for w in spec["workloads"]}
    table = workloads.make_workloads(toy=True)
    assert named == set(table), f"BENCHMARK.json workloads {sorted(named)} != {sorted(table)}"
    for wl in table.values():
        for trace in (False, True):
            record, line, units = toy_run(wl, trace, out_dir)
            assert line["correct"] and line["failed"] == 0, (wl.name, trace, record["failures"])
            assert line["attempted"] >= len(wl.ops), (wl.name, line["attempted"])
            assert set(line["metrics"]) == set(units), (wl.name, trace)
            for name, m in line["metrics"].items():
                assert m["unit"] == units[name] and isinstance(m["value"], (int, float)), name
            if trace:
                assert not record["trace_detail"]["missing"], record["trace_detail"]["missing"]
            print(f"ok  {wl.name} trace={int(trace)}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} ops")


def check_broken_release_fails(workloads, out_dir: str) -> None:
    wl = workloads.make_workloads(toy=True)["binary-complete"]
    release = wl.ops[0]
    assert release.metric == workloads.RELEASE

    def broken(ctx, seed):
        levels = [dict(m) for m in release.run(ctx, seed)]
        leaf = next(iter(levels[-1]))
        levels[-1][leaf] = -1
        return levels

    wl.ops[0] = dataclasses.replace(release, run=broken)
    record, line, _ = toy_run(wl, False, out_dir)
    assert not line["correct"] and line["failed"] >= 1, line
    assert any("non-negative" in f for f in record["failures"]), record["failures"]
    print(f"ok  injected negative leaf counted: {line['failed']}/{line['attempted']} failed")


def main() -> int:
    run.import_package()
    import workloads

    out_dir = os.path.join(run.OUT, "selftest")
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            check_emits_everything(workloads, out_dir)
            check_broken_release_fails(workloads, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
