#!/usr/bin/env python3
"""Smoke test of the benchmark at toy sizes.

Runs every workload once untraced and once traced, through the same entry
point the full benchmark uses, and checks that:
  * every metric BENCHMARK.json names is printed with its unit,
  * no run failed (failed_frac is 0) and the result is marked correct,
  * the traced pass's exact counts equal the pipeline's WorkMeter sums,
  * --chrome-trace writes the spans with their parent, chunk and ROI count.

Usage, from the root of a source checkout:  python3 perfbench/tests/smoke_test.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TRACE_FILE = os.path.join(".bench_build", "perfbench-smoke-trace.json")


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--toy", *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {r.returncode}\n"
                             f"{r.stdout[-2000:]}\n{r.stderr[-2000:]}")
    return r.stdout, json.loads(r.stdout.strip().splitlines()[-1])


def check_chrome_trace(workload):
    path = os.path.join(ROOT, TRACE_FILE)
    try:
        run(workload, 1, ("--chrome-trace", TRACE_FILE))
        with open(path) as f:
            events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    finally:
        if os.path.exists(path):
            os.remove(path)
    names = {e["name"] for e in events}
    assert {"run", "io.read", "nd.stitch"} <= names, f"span names {sorted(names)}"
    for e in events:
        assert {"id", "parent", "chunk", "rois"} <= set(e["args"]), e
    roots = [e for e in events if e["args"]["parent"] == -1]
    assert len(roots) == 1 and roots[0]["name"] == "run", "expected one root span"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{w['name']} trace={trace}"
            try:
                stdout, result = run(w["name"], trace)
                want = {m["name"]: m["unit"] for m in spec[section]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert got == want, f"metrics/units differ: {sorted(set(got.items()) ^ set(want.items()))}"
                assert result["correct"] is True, "result not marked correct"
                assert result["attempted"] >= 1 and result["failed"] == 0, \
                    f"failed {result['failed']} of {result['attempted']}"
                assert "# failed_frac=0 " in stdout, "failed_frac is not 0"
                if trace == 1:
                    assert result["metrics"]["trace.counter_mismatches"]["value"] == 0, \
                        "counter cross-check mismatched"
                    assert "# cross-check: exact" in stdout, "cross-check not reported exact"
                print(f"ok   {name}")
            except AssertionError as e:
                failures.append(name)
                print(f"FAIL {name}: {e}")
    try:
        check_chrome_trace(spec["workloads"][0]["name"])
        print("ok   chrome trace")
    except AssertionError as e:
        failures.append("chrome trace")
        print(f"FAIL chrome trace: {e}")
    if failures:
        print(f"{len(failures)} failed: {', '.join(failures)}")
        sys.exit(1)
    print("all workloads passed")


if __name__ == "__main__":
    main()
