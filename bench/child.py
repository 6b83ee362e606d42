"""One measured process of the benchmark; the driver in run.py starts it.

    child.py setup [--cache PATH]
        import crystalline and build the CLI parser (and open the
        StructureCache at PATH), then exit: the start-up a user pays.
    child.py job WORKLOAD JOB_ID [--trace FILE] [--smoke]
        run one job in this fresh interpreter and write its output bytes
        to stdout.
    child.py session --seed N --cache PATH [--trace FILE] [--smoke]
        run ring-session in this one interpreter: every job in script
        order, then every job again in a seeded order with the
        StructureCache reopened from PATH.  Writes one JSON line with each
        job's time, exit code and output digest.

The first pass of a session keeps the script order on purpose: a first
ask's time depends on which questions came before it (they share the
library's in-process caches), so a seeded first pass would make the
first-ask latencies measure the order instead of the code.

With --trace FILE the process wraps the crystalline modules before any job
runs and writes the per-layer trace to FILE at the end.
"""

import argparse
import hashlib
import json
import random
import sys
import time

from jobs import SMOKE, WORKLOADS, find_job, run_job


def _tracer(path, job_id):
    if not path:
        return None
    from layertrace import Tracer

    tracer = Tracer(job_id)
    tracer.install()
    return tracer


def _session(args, tracer):
    from crystalline.cli import build_parser
    from crystalline.grothendieck import StructureCache

    table = SMOKE if args.smoke else WORKLOADS
    jobs = table["ring-session"]["jobs"]
    build_parser()
    cache = StructureCache(args.cache)
    rng = random.Random(args.seed)
    results = []
    for pass_name in ("first", "replay"):
        order = list(jobs)
        if pass_name == "replay":
            cache = StructureCache(args.cache)
            rng.shuffle(order)
        pass_start = time.perf_counter()
        for job in order:
            start = time.perf_counter()
            try:
                out, code = run_job(job, cache)
            except Exception as exc:  # a failed job is recorded, the session goes on
                out, code = repr(exc).encode(), 1
            results.append({
                "pass": pass_name,
                "id": job["id"],
                "seconds": time.perf_counter() - start,
                "code": code,
                "sha256": hashlib.sha256(out).hexdigest(),
                "bytes": len(out),
                "cli": "argv" in job,
            })
        results.append({"pass": pass_name, "pass_seconds": time.perf_counter() - pass_start})
        if tracer is not None and pass_name == "first":
            tracer.mark("first_pass")
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "job", "session"])
    parser.add_argument("workload", nargs="?")
    parser.add_argument("job_id", nargs="?")
    parser.add_argument("--cache")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if args.mode == "setup":
        from crystalline.cli import build_parser
        from crystalline.grothendieck import StructureCache

        build_parser()
        if args.cache:
            StructureCache(args.cache)
        return 0
    tracer = _tracer(args.trace, args.job_id or "ring-session")
    if args.mode == "job":
        out, code = run_job(find_job(args.workload, args.job_id, args.smoke))
        sys.stdout.buffer.write(out)
        sys.stdout.flush()
    else:
        results = _session(args, tracer)
        sys.stdout.write(json.dumps(results) + "\n")
        code = 0
    if tracer is not None:
        tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
