"""End-to-end self-test of the benchmark harness on the reduced job lists.

    python3 bench/selftest.py

Run from the root of a checkout.  For every workload it runs run.py with
--smoke, traced and untraced, and checks that every metric BENCHMARK.json
names is reported with its unit and that all outputs match the reference.
It then checks that two seeds agree, that one corrupted reference digest
makes the run fail, and that run.py refuses a directory holding only the
benchmark.  Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from jobs import SMOKE  # noqa: E402

# relative, so that the copy in a bare directory runs its own run.py
RUN = os.path.join(os.path.relpath(BENCH_DIR, ROOT), "run.py")


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for seed in (1, 2):
                if trace and seed == 2:
                    continue
                code, result = run(workload, seed, trace)
                expect(code == 0 and result is not None,
                       f"{workload} trace={trace} seed={seed} prints a result")
                if result is None:
                    continue
                expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                       f"{workload} trace={trace} result has exactly the four keys")
                expect(result["correct"] and result["failed"] == 0
                       and result["attempted"] > 0,
                       f"{workload} trace={trace} seed={seed} outputs match the reference")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == want,
                       f"{workload} trace={trace} reports every {key} metric with its unit")

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        # a copy of the benchmark with one wrong digest, run on this checkout
        bare = os.path.join(scratch, "bare")
        copy = os.path.join(bare, os.path.basename(BENCH_DIR))
        shutil.copytree(BENCH_DIR, copy, ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(copy, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        job = SMOKE["char-bridge"]["jobs"][0]["id"]
        reference["char-bridge"][job] = "0" * 64
        with open(os.path.join(copy, "reference.json"), "w", encoding="utf-8") as fh:
            json.dump(reference, fh)
        code, result = run("char-bridge", 1, 0, script=os.path.join(copy, "run.py"))
        expect(code == 0 and result is not None and not result["correct"]
               and result["failed"] / result["attempted"] > 0,
               "a corrupted reference digest gives failed_ratio > 0")

        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result = run("enum-graph", 1, 0, cwd=bare)
        expect(code != 0 and result is None,
               "a directory holding only the benchmark exits non-zero without a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
