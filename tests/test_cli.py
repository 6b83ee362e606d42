"""End-to-end command-line tests driving main() with captured output."""

import argparse
import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys

import pytest

import crystalline
from crystalline import cli
from crystalline.cli import main
from crystalline.crystal import build_graph
from crystalline.grothendieck import a_z, psi, row_class
from crystalline.symfunc import LaurentPoly
from crystalline.tableaux import enumerate_kn, enumerate_sst_pairs, residue, t_lambda
from crystalline.weights import conjugate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_letter_crystal_row_count(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--type", "c", "--rank", "2", "--shape", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,rows,weight"
    assert len(lines) == 5


def test_enumerate_empty_shape(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--type", "c", "--rank", "2", "--shape", "0",
        "--format", "csv",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_enumerate_two_box_column_count(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--type", "c", "--rank", "2", "--shape", "1,1",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 5
    assert blob["type"] == "C" and blob["rank"] == 2


def test_enumerate_is_deterministic(capsys):
    args = ("enumerate", "--type", "d", "--rank", "3", "--shape", "2,1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_enumerate_rank_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--type", "c", "--rank", "99",
                       "--shape", "1")
    assert code == 3
    assert "max-rank" in err


def test_enumerate_vertex_cap(capsys):
    code, _, err = run(
        capsys, "enumerate", "--type", "c", "--rank", "3", "--shape", "2,1",
        "--max-vertices", "3",
    )
    assert code == 3


def test_enumerate_bad_shape(capsys):
    code, _, err = run(capsys, "enumerate", "--type", "c", "--rank", "2",
                       "--shape", "zz")
    assert code == 2
    assert "cannot parse shape" in err


# ---------------------------------------------------------------------------
# graph


def test_graph_diamond(capsys):
    code, out, _ = run(capsys, "graph", "--type", "d", "--rank", "2",
                       "--shape", "1")
    assert code == 0
    nodes = [l for l in out.splitlines() if "->" not in l and "label" in l]
    edges = [l for l in out.splitlines() if "->" in l]
    assert len(nodes) == 4
    assert len(edges) == 4
    assert '[label="0"]' in out and '[label="1"]' in out


def test_graph_empty_shape_single_node(capsys):
    code, out, _ = run(capsys, "graph", "--type", "b", "--rank", "2",
                       "--shape", "0")
    assert code == 0
    assert "->" not in out
    assert out.count("label") == 1


def test_graph_counts_match_library(capsys):
    code, out, _ = run(
        capsys, "graph", "--type", "c", "--rank", "3", "--shape", "2,1",
        "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    graph = build_graph(t_lambda((2, 1), "c", 3))
    assert len(blob["vertices"]) == len(graph)
    assert len(blob["edges"]) == graph.arrow_count()


def test_graph_csv(capsys):
    code, out, _ = run(
        capsys, "graph", "--type", "b", "--rank", "2", "--shape", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "source,arrow,target"
    assert len(lines) == 5


def test_graph_is_deterministic(capsys):
    args = ("graph", "--type", "d", "--rank", "3", "--shape", "1,1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# verify


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == 2
    assert "unknown identity" in err


@pytest.mark.parametrize(
    "identity,flags",
    [
        ("e-expansion", ("--type", "c", "--a", "0..4", "--degree", "10")),
        ("residue-character", ("--a", "0..2", "--b", "0..2", "--c", "0..2")),
        ("psi", ("--type", "c", "--a", "0..2", "--b", "0..2")),
        ("psi-homomorphism", ("--type", "d", "--a", "0..1", "--b", "1..2")),
        ("tensor-decomp", ("--a", "0..4", "--b", "1..9")),
        ("dominance-lemma", ("--type", "c",)),
        ("laurent-bridge", ("--type", "b", "--rank", "3")),
        ("jt-character", ("--type", "c", "--shape", "1:1", "--rank", "3")),
    ],
)
def test_verify_suites_pass(capsys, identity, flags):
    code, out, _ = run(capsys, "verify", identity, *flags)
    assert code == 0, out
    lines = out.strip().split("\n")
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert ", 0 failed" in lines[-1]


def test_verify_reports_honest_failure(capsys):
    # the even orthogonal full-height family swaps with its signed twin at
    # odd ranks, so pinning the stable series to rank 3 must fail
    code, out, _ = run(
        capsys, "verify", "jt-character", "--type", "d", "--shape", "1,1",
        "--shape-ell", "1", "--rank", "3",
    )
    assert code == 1
    assert "FAIL" in out
    assert "1 failed" in out.strip().split("\n")[-1]


def test_residue_character_reports_a_wrong_stratum(capsys, monkeypatch):
    real = cli.schur_poly
    wrong = conjugate((1 + 2 + 1 - 1, 1 + 1))  # a=1 b=2 c=1, residue 1

    def skewed(lam, n):
        poly = real(lam, n)
        return poly + LaurentPoly.one(n) if tuple(lam) == wrong else poly

    monkeypatch.setattr(cli, "schur_poly", skewed)
    code, out, _ = run(
        capsys, "verify", "residue-character", "--a", "1", "--b", "1..2", "--c", "1",
    )
    fillings = sum(
        1 for T in enumerate_sst_pairs(1, 2, 1, 5) if residue(T) == 1
    )
    assert code == 1
    assert out.split("\n") == [
        "PASS residue-character frame a=1 b=1 c=1",
        "FAIL residue-character frame a=1 b=2 c=1: "
        f"stratum 1 has {fillings} fillings",
        "2 instances: 1 passed, 1 failed",
        "",
    ]


def test_residue_character_reports_a_missing_residue(capsys, monkeypatch):
    real = cli._frame_strata

    def without_one(a, b, c, m):
        return {k: v for k, v in real(a, b, c, m).items() if k != 1}

    monkeypatch.setattr(cli, "_frame_strata", without_one)
    code, out, _ = run(
        capsys, "verify", "residue-character", "--a", "0..1", "--b", "1", "--c", "1",
    )
    assert code == 1
    assert out.split("\n") == [
        "PASS residue-character frame a=0 b=1 c=1",
        "FAIL residue-character frame a=1 b=1 c=1: residue support [0]",
        "2 instances: 1 passed, 1 failed",
        "",
    ]


def test_verify_caps(capsys):
    code, _, err = run(capsys, "verify", "e-expansion", "--degree", "99")
    assert code == 3
    code, _, err = run(capsys, "verify", "laurent-bridge", "--rank", "99")
    assert code == 3


def test_jt_character_cap_boundary(capsys):
    # the rank-3 model of (2, 1) has 64 fillings: a cap of 64 counts them
    # all, and one less stops the suite with a single line
    assert len(enumerate_kn((2, 1), "c", 3)) == 64
    flags = ("verify", "jt-character", "--type", "c", "--shape", "2,1", "--rank", "3")
    code, out, _ = run(capsys, *flags, "--max-vertices", "64")
    assert code == 0, out
    code, out, err = run(capsys, *flags, "--max-vertices", "63")
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "resource cap: more than 63 fillings of shape (2, 1) at rank 3"
    ]


def test_jt_character_cap_holds_every_layer():
    # (40, 40, 40, 39) at rank 4 is 40 columns wide: the cap must stop the
    # count within its first layers, as the listing stopped after 1,001
    # fillings, not after 39 uncapped layers, so the child gets 20 s and
    # 1 GiB of address space
    src = os.path.dirname(os.path.dirname(os.path.abspath(crystalline.__file__)))
    argv = ("verify", "jt-character", "--shape", "1", "--shape-ell", "40",
            "--rank", "4", "--max-vertices", "1000")
    proc = subprocess.run(
        [sys.executable, "-m", "crystalline.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "resource cap: more than 1000 fillings of shape (40, 40, 40, 39) at rank 4"
    ]


def test_verify_output_file(capsys, tmp_path):
    path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", "e-expansion", "--type", "b",
                       "--output", str(path))
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert text.strip().endswith("0 failed")


# ---------------------------------------------------------------------------
# groth


def test_groth_delta_example(capsys):
    code, out, _ = run(capsys, "groth", "h:0 * z:1", "--type", "c",
                       "--side", "A")
    assert code == 0
    assert out == "z1*h0 + h1\n"


def test_groth_unit(capsys):
    code, out, _ = run(capsys, "groth", "1 * z:2", "--type", "c")
    assert code == 0
    assert out == "[1,1 | 0@0]\n"


def test_groth_zero_posi_fusion(capsys):
    code, out, _ = run(capsys, "groth", "w:3,1 * pi:3,3,2,1@4", "--type", "c")
    assert code == 0
    assert out == "[3,1 | 3,3,2,1@4]\n"


def test_groth_windowed_series(capsys):
    code, out, _ = run(capsys, "groth", "h:0 * h:0", "--type", "c",
                       "--degree", "8")
    assert code == 0
    assert out.strip().endswith("+ O(9)")
    assert "[0 | 2,2@2]" in out


def test_groth_json_round_trip(capsys):
    code, out, _ = run(capsys, "groth", "h:1 * z:1", "--type", "c",
                       "--side", "both", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["ring"]["through_degree"] is None
    assert {"zs": [1], "hs": [1], "barred": 0, "coeff": 1} in blob["algebra"]["terms"]


def test_groth_errors(capsys):
    assert run(capsys, "groth", "q:3", "--type", "c")[0] == 2
    assert run(capsys, "groth", "hbar:0", "--type", "c")[0] == 2
    assert run(capsys, "groth", "pi:1,1", "--type", "c")[0] == 2
    assert run(capsys, "groth", "h:0 * h:0", "--type", "c", "--side", "A")[0] == 2
    assert run(capsys, "groth", "h:0 * h:0", "--type", "c", "--degree", "99")[0] == 3


def test_groth_non_stabilization_is_one_line(capsys, monkeypatch):
    # force the scan to give up: every scan reads the rank below the one
    # asked for, so the first pair (ranks 3 and 4, really 2 and 3) disagrees,
    # and no escalation is allowed
    from crystalline import crystal

    scan = crystal._scan_at_rank
    monkeypatch.setattr(crystal, "_SCAN_ESCALATIONS", 0)

    def low(left, right, n, cap):
        return scan(left, right, n - 1, cap)

    monkeypatch.setattr(crystal, "_scan_at_rank", low)
    # no scan answered before, or by, the patched scan may stay
    crystalline.clear_caches()
    try:
        code, out, err = run(capsys, "groth", "pi:1@1*w:1", "--type", "b")
    finally:
        crystalline.clear_caches()
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("resource cap: decomposition did not stabilize by rank 4;")
    assert "ranks 3 and 4 differ on 2 labels" in err


def test_groth_scan_node_cap_is_one_line(capsys, monkeypatch):
    # the scan's walk stops at the node cap: h_1 x z_2 in type c starts at
    # rank 5, whose 1,1 walk places more than ten letters
    from crystalline import crystal

    monkeypatch.setattr(crystal, "DEFAULT_MAX_VERTICES", 10)
    crystalline.clear_caches()
    try:
        code, out, err = run(capsys, "groth", "h:1*z:2", "--type", "c")
    finally:
        crystalline.clear_caches()
    assert (code, out) == (3, "")
    assert err == "resource cap: more than 10 scan nodes for shape (1, 1) at rank 5\n"


def test_groth_tall_column_after_a_row_has_every_component(capsys):
    # h_0 x z_5 in type c: the scan starts at rank 10, where all six
    # components [1^(5-j) | j@1] have appeared (ranks 8 and 9 hold none)
    code, out, err = run(capsys, "groth", "h:0*z:5", "--type", "c", "--side", "both")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "[1,1,1,1,1 | 0@1] + [1,1,1,1 | 1@1] + [1,1,1 | 2@1] + [1,1 | 3@1] "
        "+ [1 | 4@1] + [0 | 5@1]",
        "z5*h0 + z4*h1 + z3*h2 + z2*h3 + z1*h4 + h5",
    ]


def test_groth_tall_column_past_the_filling_listing(capsys):
    # h_3 x z_6 in type c scans ranks 15 and 16, where listing every filling
    # of the right model took seconds; the pruned scan agrees with the
    # algebra route read back as labels
    code, out, err = run(capsys, "groth", "h:3*z:6", "--type", "c")
    assert (code, err) == (0, "")
    want = cli._labels_from_algebra(psi(row_class("c", 3)) * a_z("c", 6), "c")
    assert out == f"{want}\n"
    assert out.count("@1]") == 22


@pytest.mark.parametrize(
    "product,lie_type,digest",
    [
        # the SHA-256 of the stdout the full listing printed for these two
        ("h:2*z:2*h:2*z:3", "b", "78eabea0c530dd76349f2b4cd2fd30e8c6c24fc0d81f16e851639545248ce073"),
        ("h:1*z:2*h:1*z:2", "d", "9d9cc2e24b96d3cc5ec1be9602995ff14e5623a682545a5e5fd18938a9aa4c62"),
    ],
    ids=["b", "d"],
)
def test_groth_long_products_keep_their_output(capsys, product, lie_type, digest):
    code, out, err = run(capsys, "groth", product, "--type", lie_type)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_groth_start_rank_above_the_scan_cap_is_one_line(capsys):
    # [0 | 10@1] x 1^7 starts at rank 10 + 2*7 = 24, and the scan cap is 24
    code, out, err = run(capsys, "groth", "pi:10@1*w:1,1,1,1,1,1,1", "--type", "c")
    assert (code, out) == (3, "")
    assert err == (
        "resource cap: no rank was scanned: the product needs ranks 24 and 25, "
        "but the scan cap is rank 24\n"
    )


def test_groth_noncommutativity_visible(capsys):
    _, hz, _ = run(capsys, "groth", "h:1 * z:1", "--type", "c")
    _, zh, _ = run(capsys, "groth", "z:1 * h:1", "--type", "c")
    assert hz != zh
    assert zh == "[1 | 1@1]\n"


# ---------------------------------------------------------------------------
# exit-code contract on malformed input, through a real interpreter


MALFORMED = [
    ("enumerate", "--type", "c", "--rank", "3", "--shape", "1,2"),
    ("enumerate", "--type", "c", "--rank", "2", "--shape", "1,1,1"),
    ("enumerate", "--type", "c", "--rank", "-1", "--shape", "1"),
    ("enumerate", "--type", "c", "--rank", "3", "--shape", "1.5"),
    ("graph", "--type", "c", "--rank", "3", "--shape", "1,2"),
    ("graph", "--type", "d", "--rank", "1", "--shape", "1"),
    ("groth", "h:1*z:1", "--degree", "-5"),
    ("verify", "laurent-bridge", "--rank", "-1"),
    ("verify", "e-expansion", "--degree", "-3"),
    ("verify", "laurent-bridge", "--ell", "0"),
    ("verify", "laurent-bridge", "--lam", "-1"),
    # --a/--b/--c values count boxes, so a negative one is refused
    ("verify", "residue-character", "--a=-2..-1", "--b", "0", "--c", "1"),
    ("verify", "residue-character", "--c=-1..0"),
    # an --output path under a missing directory cannot be written
    ("enumerate", "--type", "c", "--rank", "2", "--shape", "1", "--output", "/nonexistent/x"),
    ("graph", "--type", "c", "--rank", "2", "--shape", "1", "--output", "/nonexistent/x"),
    ("verify", "e-expansion", "--type", "c", "--a", "0", "--output", "/nonexistent/x"),
    ("groth", "h:1*z:1", "--output", "/nonexistent/x"),
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2_with_one_line(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(crystalline.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "crystalline.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


CAPPED = [
    # a shape wider than the interpreter's recursion limit
    ("enumerate", "--type", "c", "--rank", "1", "--shape", "1500", "--max-vertices", "5"),
    # a term with more boxes than --max-degree, refused before it is built
    ("groth", "h:1*z:11", "--type", "c"),
    # --a values are box counts, held against --max-degree before any instance
    ("verify", "e-expansion", "--a", "0..11"),
    ("verify", "residue-character", "--a", "0..11"),
]


@pytest.mark.parametrize("argv", CAPPED, ids=" ".join)
def test_capped_input_exits_3_with_one_line(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(crystalline.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "crystalline.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource cap: "), proc.stderr


def test_verify_usage_errors_come_before_range_caps(capsys):
    code, _, err = run(capsys, "verify", "e-expansion", "--a", "0..11", "--ell", "0")
    assert code == 2 and err == "error: --ell must be at least 1, not 0\n"
    code, _, err = run(capsys, "verify", "psi", "--a", "3..1")
    assert code == 2 and err == "error: empty range '3..1'\n"


def test_unwritable_output_names_the_path(capsys, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "groth", "h:1*z:1", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")


PROBE_RUNS = {
    "enumerate": ("enumerate", "--type", "c", "--rank", "2", "--shape", "1"),
    "graph": ("graph", "--type", "c", "--rank", "2", "--shape", "1"),
    "verify": ("verify", "jt-character", "--type", "b"),
    "groth": ("groth", "h:1*z:1"),
}


@pytest.mark.parametrize("command", sorted(PROBE_RUNS))
def test_unwritable_output_fails_before_the_command_runs(capsys, monkeypatch, command):
    def must_not_run(args):
        raise AssertionError(f"{command} ran before --output was checked")

    monkeypatch.setattr(cli, f"cmd_{command}", must_not_run)
    code, out, err = run(capsys, *PROBE_RUNS[command], "--output", "/nonexistent/x")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write /nonexistent/x: ") and err.count("\n") == 1


def test_main_runs_the_command_now_bound_to_its_name(capsys, monkeypatch):
    # the positive control of the test above: with the shared parser built
    # by an earlier run, a replaced cmd_groth is what main calls
    assert run(capsys, "groth", "h:1*z:1")[0] == 0
    ran = []

    def stub(args):
        ran.append(args.expr)
        return 0

    monkeypatch.setattr(cli, "cmd_groth", stub)
    assert run(capsys, "groth", "h:1*z:1") == (0, "", "")
    assert ran == ["h:1*z:1"]


def test_main_builds_one_parser_and_build_parser_a_new_one_each_call(
    capsys, monkeypatch
):
    build, built = cli.build_parser, []

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._main_parser.cache_clear()
    try:
        for _ in range(3):
            assert run(capsys, "groth", "h:1*z:1")[0] == 0
        assert len(built) == 1
    finally:
        cli._main_parser.cache_clear()
    # a caller's edits to its own parser do not reach the one main reads
    mine = cli.build_parser()
    assert mine is not cli.build_parser()
    subparsers = next(
        a for a in mine._actions if isinstance(a, argparse._SubParsersAction)
    )
    subparsers.choices["groth"].set_defaults(format="json")
    assert run(capsys, "groth", "h:1*z:1")[1] == "[0 | 0@1] + [1 | 1@1] + [0 | 2@1]\n"


def test_output_probe_keeps_files_of_failed_runs_as_they_were(capsys, tmp_path):
    # a failing run neither cuts an existing file short nor leaves a new one
    old = tmp_path / "old.txt"
    old.write_text("kept\n", encoding="utf-8")
    new = tmp_path / "new.txt"
    for path in (old, new):
        code, out, _ = run(capsys, "groth", "q:3", "--output", str(path))
        assert (code, out) == (2, "")
        code, out, _ = run(capsys, "groth", "h:0*h:0", "--degree", "99", "--output", str(path))
        assert (code, out) == (3, "")
    assert old.read_text(encoding="utf-8") == "kept\n"
    assert not new.exists()
    assert run(capsys, "groth", "h:1*z:1", "--output", str(new))[0] == 0
    assert new.read_text(encoding="utf-8") == "[0 | 0@1] + [1 | 1@1] + [0 | 2@1]\n"


class ReadRecorder(argparse.Namespace):
    """A namespace that records which --max-* caps are read from it."""

    def __getattribute__(self, name):
        if name.startswith("max_"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return super().__getattribute__(name)


CAP_RUNS = {
    "enumerate": [("enumerate", "--type", "c", "--rank", "2", "--shape", "1")],
    "graph": [("graph", "--type", "c", "--rank", "2", "--shape", "1")],
    "verify": [
        ("verify", "jt-character", "--type", "c", "--shape", "1", "--rank", "2"),
        ("verify", "e-expansion", "--type", "c", "--a", "0"),
    ],
    "groth": [("groth", "h:1*z:1", "--degree", "3")],
}


def test_each_subcommand_takes_exactly_the_caps_it_reads(capsys):
    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    taken = {
        name: {a.dest for a in sub._actions if a.dest.startswith("max_")}
        for name, sub in subparsers.choices.items()
    }
    assert taken == {
        "enumerate": {"max_vertices", "max_rank"},
        "graph": {"max_vertices", "max_rank"},
        "verify": {"max_vertices", "max_degree", "max_rank"},
        "groth": {"max_degree"},
    }
    for name, runs in CAP_RUNS.items():
        read = set()
        for argv in runs:
            args = parser.parse_args(argv, namespace=ReadRecorder())
            vars(args).pop("_read", None)
            assert getattr(cli, f"cmd_{name}")(args) == 0
            read |= vars(args).pop("_read", set())
        capsys.readouterr()
        assert read == taken[name], name


# ---------------------------------------------------------------------------
# README examples


README = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"
)


def readme_examples():
    """Every ``$ crystal ...`` line in the README's code blocks, with the
    output lines printed under it (up to a blank line or the next prompt)."""
    examples, current, in_block = [], None, False
    with open(README, encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            if line.startswith("```"):
                in_block, current = not in_block, None
            elif not in_block:
                continue
            elif line.startswith("$ crystal "):
                current = (line[len("$ crystal ") :], [])
                examples.append(current)
            elif current is not None and line:
                current[1].append(line)
            else:
                current = None
    return examples


README_EXAMPLES = readme_examples()


def test_readme_examples_are_found():
    assert len(README_EXAMPLES) == 7
    assert all(expected for _, expected in README_EXAMPLES)


@pytest.mark.parametrize(
    "command,expected", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES]
)
def test_readme_example_prints_what_the_readme_shows(capsys, command, expected):
    code, out, err = run(capsys, *shlex.split(command))
    assert code == 0, err
    if expected[0] == "...":
        # an elided example: only the lines after the ellipsis are shown
        assert out.splitlines()[-(len(expected) - 1) :] == expected[1:]
    else:
        assert out == "\n".join(expected) + "\n"
