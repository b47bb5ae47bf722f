#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload on a tiny graph.

    python3 perfbench/smoke_test.py        (or: ctest in the perfbench build)

For each workload in BENCHMARK.json, runs `run.py --smoke` untraced and
traced and checks that the run exits 0 with every correctness gate
passed, prints exactly the end-to-end (untraced) or per-layer (traced)
metrics named in BENCHMARK.json with their units, reports end-to-end
metrics above 0, and writes a Chrome trace. Also checks that bad
arguments, and a copy of the benchmark without the library sources, exit
non-zero without printing a result. Takes well under a minute.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def run(args, cwd=ROOT, runner=RUN):
    p = subprocess.run(runner + args, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    return p.returncode, p.stdout, p.stderr


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(cond, what, failures):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    BUILD_ROOT.mkdir(exist_ok=True)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, expected in (("0", e2e), ("1", layer)):
            # A fresh work directory, so a trace left by an earlier run
            # cannot stand in for this run's.
            work = Path(tempfile.mkdtemp(dir=BUILD_ROOT))
            try:
                code, out, err = run(["--workload", name, "--seed", "1",
                                      "--seconds", "1", "--trace", trace,
                                      "--smoke", "--work-dir", str(work)])
                trace_file = work / ("trace-%s-1.json" % name)
                trace_text = (trace_file.read_text()
                              if trace_file.is_file() else None)
            finally:
                shutil.rmtree(work)
            tag = "%s --trace %s" % (name, trace)
            check(code == 0, "%s exits 0 (got %d): %s" % (tag, code, err[-500:]),
                  failures)
            res = result_of(out)
            if res is None:
                check(False, tag + " printed a result", failures)
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  tag + " result keys", failures)
            check(res["correct"] is True and res["failed"] == 0,
                  tag + " passes every correctness gate", failures)
            check(res["attempted"] >= 1, tag + " attempted >= 1", failures)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expected, "%s prints exactly the %s metrics with "
                  "their units; differs in %s" % (
                      tag, "end-to-end" if trace == "0" else "per-layer",
                      sorted(set(got.items()) ^ set(expected.items()))),
                  failures)
            for k, v in res["metrics"].items():
                check(isinstance(v["value"], (int, float)) and
                      math.isfinite(v["value"]), tag + " finite " + k,
                      failures)
                if trace == "0":
                    check(v["value"] > 0, tag + " nonzero " + k, failures)
            if trace == "1":
                try:
                    events = json.loads(trace_text)["traceEvents"]
                    check(len(events) > 0, tag + " trace has spans", failures)
                except (TypeError, ValueError, KeyError) as e:
                    check(False, "%s wrote a Chrome trace: %s" % (tag, e),
                          failures)

    code, out, _ = run(["--workload", "no_such_workload", "--seed", "1",
                        "--seconds", "1", "--trace", "0"])
    check(code != 0 and "metrics" not in out,
          "unknown workload exits non-zero without a result", failures)

    # The benchmark alone, without the library sources, must refuse to run.
    scratch = Path(tempfile.mkdtemp(dir=BUILD_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(BENCH_DIR, scratch / BENCH_DIR.name)
        code, out, _ = run(["--workload", spec["workloads"][0]["name"],
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=scratch,
                           runner=[sys.executable,
                                   str(scratch / BENCH_DIR.name / "run.py")])
        check(code != 0 and "metrics" not in out,
              "a checkout without sources exits non-zero without a result",
              failures)
    finally:
        shutil.rmtree(scratch)

    print("smoke: %s" % ("FAILED (%d)" % len(failures) if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
