"""The benchmark's fixed job lists, and how one job runs.

A job is a dict with a stable ``id`` (the key of its reference digest) and
either ``argv`` for the ``crystal`` command line or ``func``/``args`` for a
library call.  Running a job returns the bytes a user would see: a CLI
job's stdout, or a library job's result as canonical JSON.

Importing this module does not import crystalline, so the driver process
stays free of the program under test; ``run_job`` imports it when called.
"""

import contextlib
import io
import json


def _cli(*argv):
    return {"id": "crystal " + " ".join(argv), "argv": list(argv)}


def _lib(func, *args):
    return {"id": f"{func}({', '.join(map(repr, args))})", "func": func, "args": list(args)}


def _enum_graph():
    jobs = []
    for lie, rank, fmt in [
        ("b", 4, "json"), ("b", 5, "csv"), ("c", 4, "csv"),
        ("c", 5, "json"), ("d", 4, "json"), ("d", 5, "csv"),
    ]:
        jobs.append(_cli("enumerate", "--type", lie, "--rank", str(rank),
                         "--shape", "2,2,1", "--format", fmt))
    for lie, rank, shape, fmt in [
        ("b", 4, "2,2,1", "dot"), ("b", 5, "2,1", "json"), ("c", 4, "2,2,1", "csv"),
        ("c", 5, "2,2,1", "dot"), ("d", 4, "2,2,1", "json"), ("d", 5, "2,1", "csv"),
    ]:
        jobs.append(_cli("graph", "--type", lie, "--rank", str(rank),
                         "--shape", shape, "--format", fmt))
    jobs.append(_cli("verify", "residue-character", "--a", "0..4", "--b", "0..4",
                     "--c", "0..4", "--degree", "9"))
    for lie in "bcd":
        for a in range(5):
            jobs.append(_lib("enumerate_spinor_columns", a, lie, 9))
    jobs.append(_lib("enumerate_spinor_columns_barred", 9))
    return jobs


def _char_bridge():
    jobs = []
    for identity in ("laurent-bridge", "jt-character"):
        for lie in "bcd":
            jobs.append(_cli("verify", identity, "--type", lie))
    jobs.append(_cli("verify", "laurent-bridge", "--type", "c", "--rank", "5",
                     "--ell", "1", "--lam", "1"))
    return jobs


# structure_constant queries per type: (mu, m, target lam); target level is m
_STRUCTURE_QUERIES = [
    ((1,), 2, (1,)), ((2,), 2, (2,)), ((1, 1), 2, (1, 1)), ((2, 1), 2, (2, 1)),
    ((1,), 2, (2,)), ((2,), 2, (1, 1)), ((1,), 3, (1,)), ((2,), 3, (2,)),
    ((1, 1), 3, (1, 1)), ((2, 1), 3, (2, 1)), ((2,), 3, (3,)), ((1,), 3, (2, 1)),
]


def _ring_session():
    jobs = [
        _cli("groth", "h:2*z:3*h:1*z:2", "--type", "c"),
        _cli("groth", "h:1*z:1", "--type", "c"),
        _cli("groth", "h:1*z:2", "--type", "d", "--side", "both"),
        _cli("groth", "hbar:0*z:2*h:1", "--type", "d"),
        _cli("groth", "w:1,1*pi:3,3,2,1@4", "--type", "c"),
        _cli("groth", "w:2,1*w:1", "--type", "b"),
        _cli("groth", "pi:1@1*w:2", "--type", "b"),
        _cli("groth", "pi:2,1@2*w:1,1", "--type", "d"),
        _cli("groth", "pi:1,1@2*pi:1,1@2", "--type", "c", "--degree", "6"),
        _cli("groth", "pi:1@1*pi:1@1*pi:1@1", "--type", "c", "--degree", "8"),
        _cli("groth", "pi:1@1*pi:2@1", "--type", "b", "--degree", "7"),
        _cli("groth", "pi:1@1*pi:1@1", "--type", "d", "--degree", "7"),
        _cli("verify", "tensor-decomp"),
        _cli("verify", "psi"),
        _cli("verify", "dominance-lemma"),
    ]
    for lie in "bcd":
        for lam, ell in [((1,), 3), ((1,), 4), ((2, 1), 3)]:
            jobs.append(_lib("level_determinant", lie, lam, ell))
    for lie in "bcd":
        jobs.append(_lib("structure_constants", lie))
    return jobs


def _pick(jobs, ids):
    by_id = {job["id"]: job for job in jobs}
    return [by_id[i] for i in ids]


def _workload(jobs, hardest, replay=None):
    return {
        "jobs": jobs,
        "hardest": hardest,
        "replay": _pick(jobs, replay) if replay is not None else jobs,
    }


_EG, _CB, _RS = _enum_graph(), _char_bridge(), _ring_session()

# Each workload: its jobs, the fixed job behind job_max_s, and the jobs it
# asks again.  ring-session replays everything in the same interpreter;
# the cold workloads ask a few seconds' worth again in fresh interpreters,
# where no in-process cache can help.
WORKLOADS = {
    "enum-graph": _workload(
        _EG,
        "crystal verify residue-character --a 0..4 --b 0..4 --c 0..4 --degree 9",
        [
            "crystal graph --type c --rank 5 --shape 2,2,1 --format dot",
            "crystal enumerate --type c --rank 5 --shape 2,2,1 --format json",
            "enumerate_spinor_columns(2, 'b', 9)",
        ],
    ),
    "char-bridge": _workload(
        _CB,
        "crystal verify laurent-bridge --type b",
        [
            "crystal verify laurent-bridge --type c --rank 5 --ell 1 --lam 1",
            "crystal verify laurent-bridge --type c",
            "crystal verify jt-character --type c",
        ],
    ),
    "ring-session": _workload(_RS, "crystal groth h:2*z:3*h:1*z:2 --type c"),
}

# A reduced list for the self-test: one cheap job of each kind.
SMOKE = {
    "enum-graph": _workload(
        _pick(_EG, [
            "crystal enumerate --type d --rank 4 --shape 2,2,1 --format json",
            "crystal graph --type c --rank 4 --shape 2,2,1 --format csv",
            "enumerate_spinor_columns(4, 'c', 9)",
        ]),
        "crystal graph --type c --rank 4 --shape 2,2,1 --format csv",
        ["enumerate_spinor_columns(4, 'c', 9)"],
    ),
    "char-bridge": _workload(
        _pick(_CB, ["crystal verify laurent-bridge --type c --rank 5 --ell 1 --lam 1"]),
        "crystal verify laurent-bridge --type c --rank 5 --ell 1 --lam 1",
        ["crystal verify laurent-bridge --type c --rank 5 --ell 1 --lam 1"],
    ),
    "ring-session": _workload(
        _pick(_RS, [
            "crystal groth h:1*z:1 --type c",
            "crystal groth pi:1@1*pi:1@1 --type d --degree 7",
            "crystal verify psi",
            "level_determinant('c', (1,), 3)",
            "structure_constants('b')",
            "structure_constants('c')",
            "structure_constants('d')",
        ]),
        "crystal groth pi:1@1*pi:1@1 --type d --degree 7",
    ),
}


def find_job(workload, job_id, smoke=False):
    table = SMOKE if smoke else WORKLOADS
    for job in table[workload]["jobs"]:
        if job["id"] == job_id:
            return job
    raise KeyError(f"no job {job_id!r} in workload {workload!r}")


def canonical(obj):
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _pair_rows(pairs):
    return [[p.a, p.b, p.c, list(p.left), list(p.right)] for p in pairs]


def run_job(job, cache=None):
    """Run one job in this process and return its output bytes and exit code.

    ``cache`` is the session's StructureCache, used by structure-constant
    queries.
    """
    if "argv" in job:
        from crystalline.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(job["argv"])
        return buf.getvalue().encode(), code
    func, args = job["func"], job["args"]
    if func == "enumerate_spinor_columns":
        from crystalline.tableaux import enumerate_spinor_columns

        return canonical(_pair_rows(enumerate_spinor_columns(*args))), 0
    if func == "enumerate_spinor_columns_barred":
        from crystalline.tableaux import enumerate_spinor_columns_barred

        return canonical(_pair_rows(enumerate_spinor_columns_barred(*args))), 0
    if func == "level_determinant":
        from crystalline.grothendieck import level_determinant
        from crystalline.weights import DominantShape

        lie, lam, ell = args
        return canonical(level_determinant(DominantShape(lie, lam, ell)).to_json()), 0
    if func == "structure_constants":
        from crystalline.grothendieck import structure_constant
        from crystalline.weights import DominantShape

        (lie,) = args
        values = [
            [list(mu), m, list(lam),
             structure_constant(lie, mu, m, DominantShape(lie, lam, m), cache)]
            for mu, m, lam in _STRUCTURE_QUERIES
        ]
        return canonical(values), 0
    raise KeyError(f"unknown library job {func!r}")
