"""The crystalline benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is ``src/`` there,
and every file the benchmark writes goes under ``.bench_work/`` there.
One client, one job in flight: each measured process is a child of this
driver, started only after the previous one has ended, and no threads.

Prints a provenance line and then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Exits 2 without a result when the checkout holds no ``src/crystalline``.

``--freeze`` writes bench/reference.json from one run of every job; the
reference was frozen once and is not meant to be refreshed by a change
that claims the same outputs.  ``--smoke`` runs the reduced job lists of
selftest.py.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from jobs import SMOKE, WORKLOADS  # noqa: E402
from layertrace import LAYERS  # noqa: E402

REFERENCE = os.path.join(BENCH_DIR, "reference.json")
CACHE_FILE_ID = "StructureCache file after the session"
SETUP_SAMPLES = 7
# Jobs still running this long after the start are killed and count as
# failed, so a run always ends within the 180 s a run may take.
DEADLINE_S = 165.0

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "job_p50_s": "s",
    "job_max_s": "s", "repeat_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "weights.make_partition_calls": "count",
    "tableaux.kn_validate_calls": "count",
    "tableaux.kn_tableaux": "count",
    "tableaux.spinor_generated": "count",
    "tableaux.spinor_kept": "count",
    "tableaux.spinor_yield": "ratio",
    "crystal.tableau_op_calls": "count",
    "crystal.graph_vertices": "count",
    "crystal.scan_s": "s",
    "symfunc.sigma_char_s": "s",
    "symfunc.laurent_mul_calls": "count",
    "symfunc.laurent_peak_terms": "count",
    "symfunc.s_g_series_calls": "count",
    "symfunc.s_g_series_repeat_share": "ratio",
    "symfunc.lr_expand_calls": "count",
    "symfunc.lr_expand_repeat_share": "ratio",
    "symfunc.schur_poly_calls": "count",
    "grothendieck.groth_mul_calls": "count",
    "grothendieck.posi_zero_calls": "count",
    "grothendieck.posi_posi_calls": "count",
    "grothendieck.level_determinant_s": "s",
    "grothendieck.psi_s": "s",
    "grothendieck.amul_calls": "count",
    "grothendieck.cache_hit_ratio": "ratio",
    "grothendieck.cache_bytes_written": "bytes",
    "cli.output_bytes": "bytes",
    "trace_overhead_ratio": "ratio",
}


class Runner:
    """Starts the measured child processes, one at a time."""

    def __init__(self, root, workdir, smoke):
        self.root = root
        self.workdir = workdir
        self.smoke = smoke
        self.start = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k != "CRYSTALLINE_CACHE"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.child = os.path.join(BENCH_DIR, "child.py")

    def run(self, *args, trace=None):
        """Run child.py with args; return (seconds, returncode, stdout)."""
        argv = [sys.executable, self.child, *args]
        if trace:
            argv += ["--trace", trace]
        if self.smoke:
            argv.append("--smoke")
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            return 0.0, None, b""
        begin = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return time.perf_counter() - begin, None, b""
        seconds = time.perf_counter() - begin
        if proc.returncode != 0:
            sys.stderr.write(f"child {args} exited {proc.returncode}\n")
            sys.stderr.write(err.decode(errors="replace")[-2000:])
        return seconds, proc.returncode, out


class Check:
    """Compares each job output against the frozen reference digests."""

    def __init__(self, reference, freeze):
        self.reference = reference
        self.freeze = freeze
        self.frozen = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, job_id, code, digest):
        self.attempted += 1
        if self.freeze and code == 0:
            if self.frozen.setdefault(job_id, digest) != digest:
                raise RuntimeError(f"{job_id} gave two different outputs")
            return
        if code != 0 or self.reference.get(job_id) != digest:
            self.failed += 1
            sys.stderr.write(f"FAILED {job_id}: exit {code}, sha256 {digest}\n")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _cold_cycle(runner, spec, workload, rng, check, trace_dir=None):
    """Every job once in seeded order, each in a fresh interpreter; a job
    of the replay set is asked again right after its first ask.

    Asking again at once, instead of in a pass at the end, spreads the
    replay samples over the run, so that one slow spell of the host does
    not hit all of them.  The second asks are not part of the fixed batch,
    so ``wall_s`` leaves them out; ``cycle_s`` includes them.  Returns the
    cycle's timings and traces.
    """
    cycle = {"jobs": {}, "traces": [], "cli_bytes": 0, "replay_s": 0.0}
    replay = {job["id"] for job in spec["replay"]}
    order = list(spec["jobs"])
    rng.shuffle(order)
    begin = time.perf_counter()
    for k, job in enumerate(order):
        for again in range(2 if job["id"] in replay else 1):
            trace = None
            if trace_dir:
                trace = os.path.join(trace_dir, f"{k}-{again}.json")
            seconds, code, out = runner.run("job", workload, job["id"], trace=trace)
            check(job["id"], code, _sha(out))
            if again:
                cycle["replay_s"] += seconds
            else:
                cycle["jobs"][job["id"]] = seconds
            if "argv" in job:
                cycle["cli_bytes"] += len(out)
            if trace and code == 0:
                cycle["traces"].append(trace)
    cycle["cycle_s"] = time.perf_counter() - begin
    cycle["wall_s"] = cycle["cycle_s"] - cycle["replay_s"]
    return cycle


def _session_cycle(runner, rng, check, trace_dir=None):
    """One ring-session process: first pass and replay in one interpreter.

    The session is the fixed batch, so ``wall_s`` is the whole process.
    """
    cache_dir = tempfile.mkdtemp(dir=runner.workdir)
    cache = os.path.join(cache_dir, "structure-cache.json")
    trace = os.path.join(trace_dir, "session.json") if trace_dir else None
    seconds, code, out = runner.run(
        "session", "--seed", str(rng.randrange(2**32)), "--cache", cache, trace=trace
    )
    cycle = {"jobs": {}, "traces": [], "cli_bytes": 0, "wall_s": seconds, "cycle_s": seconds}
    try:
        records = json.loads(out.decode().strip().splitlines()[-1]) if code == 0 else []
    except (ValueError, IndexError):
        records = []
    if not records:
        for job in (SMOKE if runner.smoke else WORKLOADS)["ring-session"]["jobs"]:
            check(job["id"], code, "")
        check(CACHE_FILE_ID, code, "")
        return None
    for rec in records:
        if "pass_seconds" in rec:
            cycle[f"{rec['pass']}_s"] = rec["pass_seconds"]
            continue
        check(rec["id"], rec["code"], rec["sha256"])
        if rec["pass"] == "first":
            cycle["jobs"][rec["id"]] = rec["seconds"]
        if rec["cli"]:
            cycle["cli_bytes"] += rec["bytes"]
    try:
        with open(cache, "rb") as fh:
            check(CACHE_FILE_ID, 0, _sha(fh.read()))
    except OSError:
        check(CACHE_FILE_ID, 1, "")
    if trace:
        cycle["traces"].append(trace)
    return cycle


def _cycle(runner, workload, spec, rng, check, trace_dir=None):
    if workload == "ring-session":
        return _session_cycle(runner, rng, check, trace_dir)
    return _cold_cycle(runner, spec, workload, rng, check, trace_dir)


def _setup_seconds(runner, workload):
    """Median start-up over several fresh interpreters."""
    samples = []
    for k in range(SETUP_SAMPLES):
        args = ["setup"]
        if workload == "ring-session":
            args += ["--cache", os.path.join(runner.workdir, f"setup-{k}.json")]
        seconds, code, _ = runner.run(*args)
        if code != 0:
            raise RuntimeError("the set-up process failed")
        samples.append(seconds)
    return statistics.median(samples)


def _end_to_end(cycles, spec, setup_s):
    firsts = [s for c in cycles for s in c["jobs"].values()]
    return {
        "wall_s": statistics.median(c["wall_s"] for c in cycles),
        "setup_s": setup_s,
        "job_p50_s": statistics.median(firsts),
        "job_max_s": statistics.median(c["jobs"][spec["hardest"]] for c in cycles),
        "repeat_s": statistics.median(c["replay_s"] for c in cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def _merge_traces(paths):
    total = {"self_s": dict.fromkeys(LAYERS, 0.0), "inclusive": {}, "calls": {},
             "distinct_args": {}, "counts": {}, "spans": 0, "dropped_spans": 0,
             "marks": {}}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)["summary"]
        for group in ("self_s", "inclusive", "calls", "distinct_args", "counts"):
            for key, value in summary[group].items():
                if key == "symfunc.laurent_peak_terms":
                    total[group][key] = max(total[group].get(key, 0), value)
                else:
                    total[group][key] = total[group].get(key, 0) + value
        total["marks"].update(summary["marks"])
        total["spans"] += summary["spans"]
        total["dropped_spans"] += summary["dropped_spans"]
    return total


def _per_layer(trace, traced, untraced):
    calls, counts, inclusive = trace["calls"], trace["counts"], trace["inclusive"]

    def ratio(num, den):
        return num / den if den else 0.0

    def repeat_share(key):
        if not calls.get(key):
            return 0.0
        return 1.0 - trace["distinct_args"][key] / calls[key]

    hits = counts.get("grothendieck.cache_hits", 0)
    lookups = hits + counts.get("grothendieck.cache_misses", 0)
    metrics = {f"{layer}.self_s": trace["self_s"][layer] for layer in LAYERS}
    metrics.update({
        "weights.make_partition_calls": calls.get("weights.make_partition", 0),
        "tableaux.kn_validate_calls": calls.get("tableaux.kn_validate", 0),
        "tableaux.kn_tableaux": counts.get("tableaux.kn_tableaux", 0),
        "tableaux.spinor_generated": counts.get("tableaux.spinor_generated", 0),
        "tableaux.spinor_kept": counts.get("tableaux.spinor_kept", 0),
        "tableaux.spinor_yield": ratio(counts.get("tableaux.spinor_kept", 0),
                                       counts.get("tableaux.spinor_generated", 0)),
        "crystal.tableau_op_calls": calls.get("crystal.tableau_op", 0),
        "crystal.graph_vertices": counts.get("crystal.graph_vertices", 0),
        "crystal.scan_s": inclusive.get("crystal.scan_s", 0.0),
        "symfunc.sigma_char_s": inclusive.get("symfunc.sigma_char_s", 0.0),
        "symfunc.laurent_mul_calls": counts.get("symfunc.laurent_mul_calls", 0),
        "symfunc.laurent_peak_terms": counts.get("symfunc.laurent_peak_terms", 0),
        "symfunc.s_g_series_calls": calls.get("symfunc.s_g_series", 0),
        "symfunc.s_g_series_repeat_share": repeat_share("symfunc.s_g_series"),
        "symfunc.lr_expand_calls": calls.get("symfunc.lr_expand", 0),
        "symfunc.lr_expand_repeat_share": repeat_share("symfunc.lr_expand"),
        "symfunc.schur_poly_calls": calls.get("symfunc.schur_poly", 0),
        "grothendieck.groth_mul_calls": calls.get("grothendieck.groth_mul", 0),
        "grothendieck.posi_zero_calls": calls.get("grothendieck.mul_posi_zero", 0),
        "grothendieck.posi_posi_calls": calls.get("grothendieck.mul_posi_posi", 0),
        "grothendieck.level_determinant_s":
            inclusive.get("grothendieck.level_determinant_s", 0.0),
        "grothendieck.psi_s": inclusive.get("grothendieck.psi_s", 0.0),
        "grothendieck.amul_calls": counts.get("grothendieck.amul_calls", 0),
        "grothendieck.cache_hit_ratio": ratio(hits, lookups),
        "grothendieck.cache_bytes_written":
            counts.get("grothendieck.cache_bytes_written", 0),
        "cli.output_bytes": traced["cli_bytes"],
        "trace_overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    })
    return metrics


def _git_rev(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _provenance(root):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(root),
        "src_lines": _src_lines(root),
    }


def measure(args, root, reference):
    table = SMOKE if args.smoke else WORKLOADS
    spec = table[args.workload]
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".bench_work"))
    runner = Runner(root, workdir, args.smoke)
    check = Check(reference, args.freeze)
    rng = random.Random(args.seed)
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        setup_s = _setup_seconds(runner, args.workload)
        cycles = []
        measure_begin = time.perf_counter()
        while True:
            cycle = _cycle(runner, args.workload, spec, rng, check)
            if cycle is None:
                break
            cycles.append(cycle)
            elapsed = time.perf_counter() - measure_begin
            if args.trace or args.freeze or elapsed + cycle["cycle_s"] > args.seconds:
                break
        traced = None
        if args.trace and cycles:
            trace_dir = os.path.join(workdir, "trace")
            os.makedirs(trace_dir)
            traced = _cycle(runner, args.workload, spec, rng, check, trace_dir)
        usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if not cycles or (args.trace and traced is None):
            metrics = None
        elif args.trace:
            trace = _merge_traces(traced["traces"])
            metrics = _per_layer(trace, traced, cycles[0])
            shares = {layer: round(trace["self_s"][layer] / traced["cycle_s"], 4)
                      for layer in LAYERS}
        else:
            metrics = _end_to_end(cycles, spec, setup_s)
        diagnostics = {
            "workload": args.workload,
            "seed": args.seed,
            "cycles": len(cycles),
            "jobs_per_cycle": len(spec["jobs"]),
            "job_samples": sum(len(c["jobs"]) for c in cycles),
            "cpu_s": (usage1.ru_utime + usage1.ru_stime)
                     - (usage0.ru_utime + usage0.ru_stime),
            "failed_ratio": check.failed / max(check.attempted, 1),
        }
        if args.trace and metrics is not None:
            diagnostics["trace_files"] = os.path.relpath(trace_dir, root)
            diagnostics["layer_share_of_traced_wall"] = shares
            first = trace["marks"].get("first_pass")
            if first is not None:
                diagnostics["layer_share_of_first_pass"] = {
                    layer: round(first[layer] / traced["first_s"], 4) for layer in LAYERS}
                diagnostics["layer_share_of_replay"] = {
                    layer: round((trace["self_s"][layer] - first[layer]) / traced["replay_s"], 4)
                    for layer in LAYERS}
            diagnostics["spans"] = trace["spans"]
            diagnostics["dropped_spans"] = trace["dropped_spans"]
    finally:
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)
    return check, metrics, diagnostics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args()
    if not args.freeze and not args.workload:
        parser.error("--workload is required")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "crystalline", "__init__.py")):
        sys.stderr.write("no src/crystalline here: run from the root of a checkout\n")
        return 2

    if args.freeze:
        frozen = {}
        for workload in WORKLOADS:
            args.workload = workload
            check, _, _ = measure(args, root, {})
            frozen[workload] = dict(sorted(check.frozen.items()))
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(frozen, fh, indent=1)
            fh.write("\n")
        return 0

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    check, metrics, diagnostics = measure(args, root, reference)
    if metrics is None:
        sys.stderr.write("no complete cycle was measured\n")
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"provenance": _provenance(root), "diagnostics": diagnostics}))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
