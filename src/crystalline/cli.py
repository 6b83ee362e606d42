"""Command-line surface for the crystal combinatorics library.

Four subcommands:

* ``enumerate`` lists the fillings of a shape at a rank.
* ``graph`` emits a crystal graph, by default in DOT form.
* ``verify`` runs a named identity suite and reports PASS or FAIL per
  instance, exiting zero only when every instance passes.
* ``groth`` evaluates a product expression in the class ring and prints
  the basis expansion, or the normal form in the rewriting algebra.

Every command is deterministic byte for byte for fixed flags.  Exit codes:
0 success, 1 a ``verify`` instance failed, 2 argument or parse problem
(including unknown identity names and an ``--output`` that cannot be
written), 3 a resource cap was hit.
"""

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Callable, Sequence

from crystalline.crystal import DEFAULT_MAX_VERTICES, build_graph
from crystalline.grothendieck import (
    GrothElement,
    a_z,
    barred_class,
    column_class,
    groth_basis,
    groth_mul,
    groth_one,
    level_determinant,
    make_label,
    psi,
    row_class,
    structure_constant,
)
from crystalline.symfunc import (
    _E_FLAVOR,
    LaurentPoly,
    alternating_e_product,
    cap_e_variant,
    laurent_specialize,
    s_g_series,
    schur_poly,
    sigma_char,
    spinor_char,
    spinor_char_barred,
)
from crystalline.tableaux import (
    _column_tally,
    _frame_strata,
    enumerate_kn,
    normalize_shape,
    t_lambda,
)
from crystalline.termmap import Accumulator
from crystalline.weights import (
    DominantShape,
    InvalidShapeError,
    ResourceCapError,
    StabilizationError,
    conjugate,
    level_shapes,
    truncation_shape,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3

DEFAULT_MAX_DEGREE = 10
DEFAULT_MAX_RANK = 6

# The --max-<cap> flags: default and help text.
CAPS = {
    "vertices": (DEFAULT_MAX_VERTICES, "cap on enumerated objects"),
    "degree": (DEFAULT_MAX_DEGREE, "cap on series degrees"),
    "rank": (DEFAULT_MAX_RANK, "cap on ranks"),
}


class CliError(ValueError):
    """Bad arguments or expressions; maps to exit code 2."""


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_parts(text: str) -> tuple[int, ...]:
    """Comma (or colon) separated integer parts; '0' or '' is the empty shape."""
    t = text.strip()
    if t in ("", "0"):
        return ()
    try:
        return tuple(int(p) for p in t.replace(":", ",").split(","))
    except ValueError as exc:
        raise CliError(f"cannot parse shape {text!r}") from exc


def parse_range(text: str) -> range:
    """Either a single integer or an inclusive 'lo..hi' range."""
    lo, sep, hi = text.strip().partition("..")
    try:
        values = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError as exc:
        raise CliError(f"cannot parse range {text!r}") from exc
    if not values:
        raise CliError(f"empty range {text!r}")
    return values


def parse_dominant(text: str, lie_type: str) -> DominantShape:
    """A shape with a level, written 'parts@ell'."""
    if "@" not in text:
        raise CliError(f"dominant shape {text!r} needs an @level suffix")
    body, _, ell_text = text.rpartition("@")
    try:
        ell = int(ell_text)
    except ValueError as exc:
        raise CliError(f"cannot parse level in {text!r}") from exc
    return DominantShape(lie_type, parse_parts(body), ell)


def check_type(value: str) -> str:
    if value not in ("b", "c", "d"):
        raise CliError(f"type must be one of b, c, d, not {value!r}")
    return value


def check_limits(args, minimums=(), caps=()) -> None:
    """First each (flag, minimum) of ``minimums`` whose value in args is
    lower, a usage error; then each (what, value, cap) of ``caps`` whose
    value is higher than args' --max-<cap>, a resource cap.  So a usage
    error is reported before a cap, and either as one line."""
    for flag, minimum in minimums:
        value = getattr(args, flag)
        if value < minimum:
            raise CliError(f"--{flag} must be at least {minimum}, not {value}")
    for what, value, cap in caps:
        limit = getattr(args, f"max_{cap}")
        if value > limit:
            raise ResourceCapError(f"{what} {value} exceeds --max-{cap} {limit}")


def _open_output(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def emit(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        return
    with _open_output(path, "w") as fh:
        fh.write(text)


def rows_to_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def to_json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    lie = check_type(args.type)
    check_limits(args, [("rank", 1)], [("rank", args.rank, "rank")])
    shape = parse_parts(args.shape)
    tableaux = enumerate_kn(shape, lie, args.rank, max_count=args.max_vertices)
    records = [
        {
            "index": k,
            "rows": T.to_json()["rows"],
            "weight": list(T.weight().window(args.rank)),
        }
        for k, T in enumerate(tableaux)
    ]
    if args.format == "json":
        text = to_json_text(
            {
                "type": lie.upper(),
                "rank": args.rank,
                "shape": list(shape),
                "count": len(records),
                "tableaux": records,
            }
        )
    else:
        rows = [
            (
                r["index"],
                "/".join(" ".join(row) for row in r["rows"]),
                " ".join(str(c) for c in r["weight"]),
            )
            for r in records
        ]
        text = rows_to_csv(("index", "rows", "weight"), rows)
    emit(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# graph


def cmd_graph(args) -> int:
    lie = check_type(args.type)
    # the type d letter crystal needs both middle arrows, so rank 2 or more
    rank_floor = 2 if lie == "d" else 1
    check_limits(args, [("rank", rank_floor)], [("rank", args.rank, "rank")])
    shape = parse_parts(args.shape)
    seed = t_lambda(shape, lie, args.rank)
    graph = build_graph(seed, max_vertices=args.max_vertices)
    if args.format == "dot":
        text = graph.to_dot() + "\n"
    elif args.format == "json":
        text = to_json_text(
            {
                "type": lie.upper(),
                "rank": args.rank,
                "shape": list(shape),
                "vertices": [v.label() for v in graph.vertices],
                "edges": [list(e) for e in graph.edges()],
            }
        )
    else:
        text = rows_to_csv(("source", "arrow", "target"), graph.edges())
    emit(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites

Instance = tuple[str, bool, str]


def _types_from(args) -> list[str]:
    if args.type:
        return [check_type(args.type)]
    return ["b", "c", "d"]


def suite_residue_character(args) -> list[Instance]:
    """Stratified two-column characters against single Schur polynomials.

    For each frame all fillings split by residue, and the stratum at
    residue k carries the Schur polynomial of the conjugate two-row shape
    (a+b+c-k, c+k).  The strata are counted from the column contents; no
    filling is built.
    """
    out: list[Instance] = []
    for a in parse_range(args.a):
        for b in parse_range(args.b):
            for c in parse_range(args.c):
                m = a + b + 2 * c
                if m == 0 or m > args.degree:
                    continue
                strata = _frame_strata(a, b, c, m)
                ok = set(strata) == set(range(0, min(a, b) + 1))
                detail = "" if ok else f"residue support {sorted(strata)}"
                for k, counts in sorted(strata.items()):
                    want = schur_poly(conjugate((a + b + c - k, c + k)), m)
                    if counts != want.terms:
                        ok = False
                        detail = f"stratum {k} has {sum(counts.values())} fillings"
                out.append((f"frame a={a} b={b} c={c}", ok, detail))
    return out


def suite_e_expansion(args) -> list[Instance]:
    """The residue-strata characters of the enumerated spinor frames against
    E series built from Littlewood-Richardson products."""
    out: list[Instance] = []
    cutoff = args.degree
    for lie in _types_from(args):
        for a in parse_range(args.a):
            char = spinor_char(a, lie, cutoff)
            want = cap_e_variant(a, _E_FLAVOR[lie], cutoff).with_t_power(1)
            if lie == "d" and a == 0:
                barred = spinor_char_barred(cutoff)
                ok = char + barred == want and (
                    char - barred == alternating_e_product(cutoff).with_t_power(1)
                )
            else:
                ok = char == want
            out.append((f"type {lie} excess {a}", ok, ""))
    return out


def _bridge_instances(args):
    for lie in _types_from(args):
        n_start = 2 if lie == "d" else 1
        for ell in range(1, args.ell + 1):
            for shape in level_shapes(lie, ell, range(2 * ell * args.lam + 1), args.lam):
                for n in range(n_start, args.rank + 1):
                    try:
                        rho = truncation_shape(shape, n)
                    except InvalidShapeError:
                        # the rank is too small to carry the shape
                        continue
                    if rho and abs(rho[0]) > n:
                        # outside the rank-n determinant's width box
                        continue
                    if lie == "d" and len(rho) == n and n % 2:
                        # full-height truncations swap with their signed
                        # twins at odd ranks; the stable series matches the
                        # even ranks
                        continue
                    yield lie, shape, n, rho


def _specialized_series(shape: DominantShape, n: int) -> LaurentPoly:
    """The shape's stable series at rank n, computed in n variables."""
    cutoff = 2 * shape.ell * n + 4
    return laurent_specialize(
        s_g_series(shape, cutoff, rows=n).with_t_power(shape.ell), n
    )


def suite_laurent_bridge(args) -> list[Instance]:
    """Specialized dominant-shape series against the rank-n determinant."""
    out: list[Instance] = []
    for lie, shape, n, rho in _bridge_instances(args):
        ok = _specialized_series(shape, n) == sigma_char(rho, lie, n)
        out.append((f"type {lie} shape {shape} rank {n}", ok, f"rho={rho}"))
    return out


def suite_jt_character(args) -> list[Instance]:
    """Dominant-shape series against the rank-n characters of the KN
    tableaux, counted by :func:`tableaux._column_tally` without building a
    tableau; the tests hold the tally to :func:`tableaux.enumerate_kn`."""
    out: list[Instance] = []
    if args.shape is not None:
        lie = check_type(args.type or "c")
        lam = parse_parts(args.shape)
        ell = args.shape_ell if args.shape_ell is not None else max(len(lam), 1)
        shape = DominantShape(lie, lam, ell)
        instances = [(lie, shape, args.rank, truncation_shape(shape, args.rank))]
    else:
        instances = list(_bridge_instances(args))
    for lie, shape, n, rho in instances:
        tally = _column_tally(normalize_shape(rho, lie, n), lie, n, args.max_vertices)
        ok = _specialized_series(shape, n) == LaurentPoly(n, tally)
        out.append(
            (f"type {lie} shape {shape} rank {n}", ok, f"{tally.total()} fillings")
        )
    return out


def _labels_from_algebra(elem, lie: str) -> GrothElement:
    """Translate one-row normal forms back to ring labels."""
    total = Accumulator(GrothElement(lie))
    for mono, coeff in elem.terms.items():
        mu = conjugate(mono.zs)
        if mono.barred == 1 and not mono.hs:
            kappa = DominantShape("d", (1, 1), 1)
        elif mono.barred == 0 and len(mono.hs) == 1:
            a = mono.hs[0]
            kappa = DominantShape(lie, (a,) if a else (), 1)
        elif mono.barred == 0 and not mono.hs:
            kappa = DominantShape(lie, (), 0)
        else:
            raise CliError(f"monomial {mono} is not a basis image")
        total.add(groth_basis(lie, mu, kappa), coeff)
    return total.result()


def suite_tensor_decomp(args) -> list[Instance]:
    """Scanned products of a level-one class by a column against the
    closed-form correction tables, translated back to basis labels."""
    out: list[Instance] = []
    for lie in _types_from(args):
        factors = [(f"width {a}", row_class(lie, a)) for a in parse_range(args.a)]
        if lie == "d":
            factors.append(("barred", barred_class()))
        for b in parse_range(args.b):
            if b == 0:
                continue
            for name, x in factors:
                got = groth_mul(x, column_class(lie, b))
                want = _labels_from_algebra(psi(x) * a_z(lie, b), lie)
                ok = got == want
                detail = "" if ok else f"got {got}, want {want}"
                out.append((f"type {lie} {name} by column {b}", ok, detail))
    return out


def suite_psi_homomorphism(args) -> list[Instance]:
    """The realization map turns scanned products into algebra products."""
    out: list[Instance] = []
    for lie in _types_from(args):
        pairs = []
        for a in parse_range(args.a):
            for b in parse_range(args.b):
                if b:
                    pairs.append((f"h{a}*z{b}", row_class(lie, a), column_class(lie, b)))
        if lie == "d":
            pairs.append(("hbar0*z2", barred_class(), column_class("d", 2)))
        pairs.append(
            (
                "[1|1@1]*z2",
                groth_basis(lie, (1,), DominantShape(lie, (1,), 1)),
                column_class(lie, 2),
            )
        )
        for name, x, y in pairs:
            ok = psi(groth_mul(x, y)) == psi(x) * psi(y)
            out.append((f"type {lie} {name}", ok, ""))
    return out


def suite_dominance_lemma(args) -> list[Instance]:
    """Diagonal structure constants are one, constants vanish outside the
    width-by-level box and across levels, and level determinants collapse."""
    out: list[Instance] = []
    for lie in _types_from(args):
        for shape in level_shapes(lie, 2, range(5), 2):
            value = structure_constant(lie, shape.lam, shape.ell, shape)
            out.append(
                (f"type {lie} diagonal {shape}", value == 1, f"constant {value}")
            )
            det = level_determinant(shape)
            collapsed = det.terms == {make_label(lie, (), shape): 1}
            out.append((f"type {lie} determinant {shape}", collapsed, str(det)))
        target = DominantShape(lie, (1, 1), 2)
        for mu in [(2,), (3,)]:
            value = structure_constant(lie, mu, 2, target)
            out.append(
                (f"type {lie} box bound mu={mu}", value == 0, f"constant {value}")
            )
        off = structure_constant(lie, (1,), 3, DominantShape(lie, (1,), 2))
        out.append((f"type {lie} off-level", off == 0, f"constant {off}"))
    return out


VERIFY_SUITES: dict[str, Callable] = {
    "residue-character": suite_residue_character,
    "e-expansion": suite_e_expansion,
    "laurent-bridge": suite_laurent_bridge,
    "jt-character": suite_jt_character,
    "tensor-decomp": suite_tensor_decomp,
    "psi-homomorphism": suite_psi_homomorphism,
    "psi": suite_psi_homomorphism,
    "dominance-lemma": suite_dominance_lemma,
}


def cmd_verify(args) -> int:
    if args.identity not in VERIFY_SUITES:
        known = ", ".join(sorted(set(VERIFY_SUITES) - {"psi"}))
        sys.stderr.write(f"unknown identity {args.identity!r}; known: {known}\n")
        return EXIT_USAGE
    # each --a/--b/--c value counts boxes, so it is held against 0 and
    # --max-degree before any instance runs
    ranges = [(f"--{flag}", parse_range(getattr(args, flag))) for flag in "abc"]
    for flag, values in ranges:
        if values[0] < 0:
            raise CliError(f"{flag} must be at least 0, not {values[0]}")
    check_limits(
        args,
        [("rank", 1), ("degree", 0), ("ell", 1), ("lam", 0)],
        [("--degree", args.degree, "degree"), ("rank", args.rank, "rank")]
        + [(flag, values[-1], "degree") for flag, values in ranges],
    )
    lines = []
    results = VERIFY_SUITES[args.identity](args)
    failures = 0
    for name, ok, detail in results:
        if ok:
            lines.append(f"PASS {args.identity} {name}")
        else:
            failures += 1
            suffix = f": {detail}" if detail else ""
            lines.append(f"FAIL {args.identity} {name}{suffix}")
    lines.append(
        f"{len(results)} instances: {len(results) - failures} passed,"
        f" {failures} failed"
    )
    emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------
# groth


def _parse_groth_token(token: str, lie: str, args) -> GrothElement:
    """One term of a groth expression.  Its box count (z:b and h:a have b and
    a, w:mu and pi:lam@ell have |mu| and |lam|, hbar:0 has 2) is held
    against --max-degree before the term is built."""
    t = token.strip()
    if t == "1":
        return groth_one(lie)
    kind, sep, rest = t.partition(":")
    if not sep:
        raise CliError(f"cannot parse term {token!r}")
    if kind in ("h", "z"):
        what = "row width" if kind == "h" else "column height"
        try:
            boxes = int(rest)
        except ValueError as exc:
            raise CliError(f"bad {what} in {token!r}") from exc
    elif kind == "hbar":
        if rest != "0":
            raise CliError("the barred row class exists only at width 0")
        if lie != "d":
            raise CliError("the barred row class needs --type d")
        boxes = 2
    elif kind in ("w", "pi"):
        boxes = sum(parse_parts(rest.rpartition("@")[0] if kind == "pi" else rest))
    else:
        raise CliError(f"unknown term kind {kind!r} in {token!r}")
    check_limits(args, caps=[(f"term {t!r} box count", boxes, "degree")])
    if kind in ("h", "z"):
        try:
            return (row_class if kind == "h" else column_class)(lie, boxes)
        except InvalidShapeError as exc:
            raise CliError(f"bad {what} in {token!r}") from exc
    if kind == "hbar":
        return barred_class()
    if kind == "w":
        return groth_basis(lie, parse_parts(rest))
    return groth_basis(lie, (), parse_dominant(rest, lie))


def cmd_groth(args) -> int:
    lie = check_type(args.type)
    if args.degree is not None:
        check_limits(args, [("degree", 0)], [("--degree", args.degree, "degree")])
    tokens = [t for t in args.expr.split("*") if t.strip()]
    if not tokens:
        raise CliError("empty expression")
    terms = [_parse_groth_token(token, lie, args) for token in tokens]
    product = terms[0]
    for term in terms[1:]:
        product = groth_mul(product, term, args.degree)
    sides = {}
    if args.side in ("K", "both"):
        sides["ring"] = product
    if args.side in ("A", "both"):
        if product.through_degree is not None:
            raise CliError(
                "the expression is an infinite series; the algebra side"
                " needs an exact product"
            )
        sides["algebra"] = psi(product)
    if args.format == "json":
        blob = {"type": lie.upper(), "expr": args.expr}
        blob.update((key, value.to_json()) for key, value in sides.items())
        text = to_json_text(blob)
    else:
        text = "\n".join(str(value) for value in sides.values()) + "\n"
    emit(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystal",
        description="Exact computations with orthosymplectic crystals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *caps):
        """--output, and a --max-<cap> flag for each cap the command reads."""
        p.add_argument("--output", help="write to a file instead of stdout")
        for cap in caps:
            default, text = CAPS[cap]
            text += " (default %(default)s)"
            p.add_argument(f"--max-{cap}", type=int, default=default, help=text)

    p_enum = sub.add_parser("enumerate", help="list the fillings of a shape")
    p_enum.add_argument("--type", required=True, help="b, c, or d")
    p_enum.add_argument("--rank", type=int, required=True)
    p_enum.add_argument("--shape", required=True, help="comma-separated parts")
    p_enum.add_argument("--format", default="json", choices=["json", "csv"])
    add_common(p_enum, "vertices", "rank")
    p_enum.set_defaults(func=cmd_enumerate)

    p_graph = sub.add_parser("graph", help="emit a crystal graph")
    p_graph.add_argument("--type", required=True, help="b, c, or d")
    p_graph.add_argument("--rank", type=int, required=True)
    p_graph.add_argument("--shape", required=True, help="comma-separated parts")
    p_graph.add_argument("--format", default="dot", choices=["dot", "json", "csv"])
    add_common(p_graph, "vertices", "rank")
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("identity", help="suite name")
    p_verify.add_argument("--type", help="restrict to one type")
    p_verify.add_argument("--a", default="0..2", help="range for widths or excesses")
    p_verify.add_argument("--b", default="0..2", help="range for column heights")
    p_verify.add_argument("--c", default="0..2", help="range for overlaps")
    p_verify.add_argument("--degree", type=int, default=8, help="degree bound")
    p_verify.add_argument("--rank", type=int, default=4, help="largest rank")
    p_verify.add_argument("--lam", type=int, default=2, help="largest part")
    p_verify.add_argument("--ell", type=int, default=2, help="largest level")
    p_verify.add_argument("--shape", help="single shape for jt-character")
    p_verify.add_argument(
        "--shape-ell", type=int, help="level for the single jt-character shape"
    )
    add_common(p_verify, "vertices", "degree", "rank")
    p_verify.set_defaults(func=cmd_verify)

    p_groth = sub.add_parser("groth", help="multiply in the class ring")
    p_groth.add_argument("expr", help="terms joined by *, e.g. 'h:0 * z:1'")
    p_groth.add_argument("--type", default="c", help="b, c, or d")
    p_groth.add_argument(
        "--side",
        default="K",
        choices=["K", "A", "both"],
        help="K prints the ring expansion, A the algebra normal form",
    )
    p_groth.add_argument(
        "--degree",
        type=int,
        help="exactness window for infinite products",
    )
    p_groth.add_argument("--format", default="text", choices=["text", "json"])
    add_common(p_groth, "degree")
    p_groth.set_defaults(func=cmd_groth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # An --output path is opened for appending before the command runs, so
    # an unwritable one fails at once and an existing file is not cut short;
    # a file made here is removed again when the command fails.
    made = False
    try:
        if args.output:
            new = not os.path.exists(args.output)
            _open_output(args.output, "a").close()
            made = new
        code = args.func(args)
        made = False
        return code
    except (CliError, InvalidShapeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ResourceCapError, StabilizationError) as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_CAP
    finally:
        if made:
            os.remove(args.output)


if __name__ == "__main__":
    sys.exit(main())
