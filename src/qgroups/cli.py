"""Batch command-line interface.

Subcommands build modules, run the verification suites, and report on
section spaces.  All output is deterministic for a fixed configuration and
cache state: identical runs produce byte-identical reports.  Exit codes:
0 success, 1 usage (a negative --max-weight included), cache-integrity,
cache-write or --out write errors or a request too large (above
MAX_REQUEST_SIZE, or out of memory), 2 failed verification or internal
invariant failure, 3 inconclusive (truncation too low).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction
from math import comb

from . import __version__
from .bundle import TruncationPolicy, borel_weil_check, frobenius_maps, invariant_functions
from .cache import CacheIntegrityError, ResultCache, atomic_write
from .cartan import cartan_data, weyl_dim
from .coeff import CoeffAlgebra, CoeffElement, antipode, haar, product, star
from .parabolic import ParabolicData
from .scalar import check_v0, rf_to_text, specialize
from .uqrep import (IRREP_SCHEMA, check_serre, irrep_from_json, irrep_to_json,
                    quantum_dimension)

CACHE_ENV = "QGROUPS_CACHE_DIR"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_INCONCLUSIVE = 3
# the largest dimension (Weyl's formula) of a full or Levi module and the
# largest number of --trunc grades, C(h + rank, rank), a command admits; both
# are checked before anything is built.  An A1 module of dimension 3,201
# takes about 1 GB and its memory grows as the square of the dimension.
MAX_REQUEST_SIZE = 10_000


class UsageError(RuntimeError):
    pass


class ArgumentParser(argparse.ArgumentParser):
    """argparse with its usage errors mapped to EXIT_USAGE instead of 2,
    which is the code of a failed verification."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def admit(size, what):
    if size > MAX_REQUEST_SIZE:
        raise UsageError(f"{what} is {size}, above the bound {MAX_REQUEST_SIZE}; "
                         "the request is too large")


def admit_module(cd, weight, theta=None):
    """Admit the module of highest weight ``weight`` for the subsystem theta
    (default: all of g) by its Weyl dimension; a weight that is not
    theta-dominant is a ``ValueError``."""
    where = "" if theta is None else f" for theta {tuple(theta)}"
    admit(weyl_dim(cd, weight, theta), f"the dimension of the module {tuple(weight)}{where}")


def truncation(cd, height) -> TruncationPolicy:
    """The --trunc policy, once its grade count is admitted."""
    trunc = TruncationPolicy(height=height)   # a negative height is a ValueError
    admit(comb(height + cd.rank, cd.rank), f"the number of grades of --trunc {height}")
    return trunc


def parse_weight(text, rank):
    try:
        coords = tuple(int(x) for x in str(text).split(","))
    except ValueError:
        raise UsageError(f"cannot parse weight {text!r}")
    if len(coords) != rank:
        raise UsageError(f"weight {text!r} needs {rank} coordinates")
    return coords


def parse_v0(text):
    """A specialization point: a rational v0 > 0 with v0 != 1."""
    try:
        v0 = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse v0 {text!r}") from None
    try:
        return check_v0(v0)
    except ValueError as e:
        raise UsageError(f"{e}, got {text!r}") from None


def parse_theta(text, rank):
    text = (text or "").strip()
    if not text:
        return ()
    try:
        theta = tuple(sorted({int(x) for x in text.split(",")}))
    except ValueError:
        raise UsageError(f"cannot parse theta {text!r}")
    for j in theta:
        if not 1 <= j <= rank:
            raise UsageError(f"theta index {j} outside 1..{rank}")
    return theta


def emit(obj, fmt, lines_human, stream):
    if fmt == "json":
        body = {k: v for k, v in obj.items() if k != "csv"}
        stream.write(json.dumps(body, sort_keys=True, indent=2, default=str) + "\n")
    elif fmt == "csv":
        rows = obj.get("csv") or []
        for row in rows:
            stream.write(",".join(str(x) for x in row) + "\n")
    else:
        for line in lines_human:
            stream.write(line + "\n")


def cmd_irrep(args, stream):
    cd = cartan_data(args.algebra)
    weight = parse_weight(args.weight, cd.rank)
    admit_module(cd, weight)
    v0 = parse_v0(args.v0) if args.v0 else None
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    # entries written by another version or payload schema are misses
    descriptor = {"kind": "irrep", "version": __version__, "schema": IRREP_SCHEMA,
                  "algebra": cd.name, "weight": list(weight)}
    module = None
    if cache is not None:
        payload = cache.load(descriptor)
        if payload is not None:
            module = irrep_from_json(cd, payload)
            # a well-formed payload may still hold a Levi module or another weight
            if module.lowering != cd.simple_indices():
                raise CacheIntegrityError("cached module is not an irreducible of "
                                          f"{cd.name}: lowering {list(module.lowering)}")
            if module.hw != weight:
                raise CacheIntegrityError(f"cached module has highest weight "
                                          f"{module.hw}, not {weight}")
    if module is None:
        from .uqrep import build_irrep

        module = build_irrep(cd, weight)
        if cache is not None:
            try:
                cache.store(descriptor, irrep_to_json(module))
            except OSError as exc:
                raise UsageError(f"cannot write cache entry in {args.cache_dir}: "
                                 f"{exc.strerror or exc}")
    report = check_serre(module)
    ok = all(r["ok"] for r in report)
    qdim = quantum_dimension(module)
    obj = {
        "algebra": cd.name,
        "weight": list(weight),
        "dimension": module.dim,
        "weights": [list(w) for w in module.weights],
        "quantum_dimension": rf_to_text(qdim),
        "relations_checked": len(report),
        "relations_ok": ok,
        "csv": [["algebra", "weight", "dimension", "relations_ok"],
                [cd.name, args.weight, module.dim, ok]],
    }
    if v0 is not None:
        obj["quantum_dimension_at_v0"] = str(specialize(qdim, v0).value)
    lines = [
        f"algebra: {cd.name}",
        f"highest weight: {weight}",
        f"dimension: {module.dim}",
        f"weights: {' '.join(str(w) for w in module.weights)}",
        f"quantum dimension: {qdim}",
        f"defining relations: {'all hold' if ok else 'FAILED'} ({len(report)} checked)",
    ]
    if v0 is not None:
        lines.append(f"quantum dimension at v={args.v0}: {obj['quantum_dimension_at_v0']}")
    emit(obj, args.format, lines, stream)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_verify(args, stream):
    # imported here: no other command needs the suites, and every process
    # would otherwise pay for loading them
    from .verify import empty_checks, report_header, run_checks

    names = args.check or None
    if args.max_weight is not None and args.max_weight < 0:
        raise UsageError(f"--max-weight must be non-negative, got {args.max_weight}")
    filters = dict(quick=args.quick, algebra=args.algebra, max_weight=args.max_weight)
    # decided from the selected cases, before any suite runs
    empty = empty_checks(report_header(names, **filters))
    if empty:
        flags = " ".join(["--quick"] * args.quick + [
            f"--{flag} {value}" for flag, value in
            (("algebra", args.algebra), ("max-weight", args.max_weight)) if value is not None])
        if names:
            raise UsageError(f"--check {', '.join(empty)} ran no case under {flags}")
        for name in empty:
            print(f"warning: {name} ran no case under {flags}", file=sys.stderr)
    report = run_checks(names, **filters)
    lines = []
    for chk in report["checks"]:
        lines.append(f"{chk['name']}: {'pass' if chk['passed'] else 'FAIL'}")
    lines.append(f"overall: {'pass' if report['passed'] else 'FAIL'}")
    report["csv"] = [["check", "passed"]] + [
        [c["name"], c["passed"]] for c in report["checks"]
    ]
    emit(report, args.format, lines, stream)
    return EXIT_OK if report["passed"] else EXIT_FAILED


def cmd_sections(args, stream):
    cd = cartan_data(args.algebra)
    theta = parse_theta(args.theta, cd.rank)
    alg = CoeffAlgebra(cd)
    p = ParabolicData(cd, theta)
    trunc = truncation(cd, args.trunc)
    if args.v != "trivial":
        raise UsageError("only the trivial inducing module is supported here; "
                         "use borel-weil or frobenius for general fibers")
    table = invariant_functions(alg, p, trunc)
    obj = {
        "algebra": cd.name,
        "theta": list(theta),
        "truncation_height": args.trunc,
        "dimensions": {str(lam): len(fs) for lam, fs in sorted(table.items())},
        "csv": [["grade", "dimension"]] + [
            [str(lam), len(fs)] for lam, fs in sorted(table.items())
        ],
    }
    lines = [f"invariant functions for {cd.name}, theta={theta}:"]
    for lam, fs in sorted(table.items()):
        lines.append(f"  grade {lam}: dimension {len(fs)}")
    emit(obj, args.format, lines, stream)
    return EXIT_OK


def cmd_borel_weil(args, stream):
    cd = cartan_data(args.algebra)
    theta = parse_theta(args.theta, cd.rank)
    mu = parse_weight(args.mu, cd.rank)
    admit_module(cd, mu, theta)
    trunc = truncation(cd, args.trunc)
    alg = CoeffAlgebra(cd)
    p = ParabolicData(cd, theta)
    vmod = alg.irreps.levi(cd, theta, mu)
    rep = borel_weil_check(alg, vmod, p, trunc)
    rep.pop("sections", None)
    rep["algebra"] = cd.name
    rep["theta"] = list(theta)
    rep["mu"] = list(mu)
    rep["expected_grade"] = list(rep["expected_grade"]) if rep["expected_grade"] else None
    rep["csv"] = [["status", "dim", "expected_dim"],
                  [rep["status"], rep["total_dim"], rep["expected_dim"]]]
    if rep["expected_grade"]:
        summary = (f"isomorphic to the module of highest weight "
                   f"{tuple(rep['expected_grade'])}, dim {rep['expected_dim']}")
    else:
        summary = "zero space"
    lines = [
        f"holomorphic sections for {cd.name}, theta={theta}, mu={mu}:",
        f"  status: {rep['status']}",
        f"  dimension: {rep['total_dim']}",
        f"  prediction: {summary}",
    ]
    emit(rep, args.format, lines, stream)
    if rep["status"] == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK if rep["status"] == "pass" else EXIT_FAILED


def cmd_frobenius(args, stream):
    cd = cartan_data(args.algebra)
    theta = parse_theta(args.theta, cd.rank)
    w_hw = parse_weight(args.w, cd.rank)
    v_hw = parse_weight(args.v, cd.rank)
    admit_module(cd, w_hw)
    admit_module(cd, v_hw, theta)
    trunc = truncation(cd, args.trunc)
    alg = CoeffAlgebra(cd)
    p = ParabolicData(cd, theta)
    wmod = alg.irrep(w_hw)
    vmod = alg.irreps.levi(cd, theta, v_hw)
    if tuple(w_hw) not in trunc.weights(cd):
        # the grade carrying any intertwiner from W sits outside the truncation
        print("inconclusive: raise --trunc to cover the module's weight",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    rep = frobenius_maps(alg, p, wmod, vmod, trunc)
    ok = (rep["dims_equal"] and rep["induced_intertwines"]
          and rep["F_after_Fbar_is_identity"] and rep["Fbar_after_F_is_identity"])
    obj = {
        "algebra": cd.name, "theta": list(theta), "W": list(w_hw), "V": list(v_hw),
        "dim_reductive": rep["dim_reductive"], "dim_induced": rep["dim_induced"],
        "dims_equal": rep["dims_equal"],
        "round_trips_ok": rep["F_after_Fbar_is_identity"] and rep["Fbar_after_F_is_identity"],
        "csv": [["dim_reductive", "dim_induced", "ok"],
                [rep["dim_reductive"], rep["dim_induced"], ok]],
    }
    lines = [
        f"reciprocity for {cd.name}, theta={theta}, W={w_hw}, V={v_hw}:",
        f"  reductive intertwiners: {rep['dim_reductive']}",
        f"  induced intertwiners:   {rep['dim_induced']}",
        f"  round trips: {'ok' if obj['round_trips_ok'] else 'FAILED'}",
    ]
    emit(obj, args.format, lines, stream)
    return EXIT_OK if ok else EXIT_FAILED


def parse_coeff_expr(alg, text):
    """Parse "t(1)[1,2]", optionally prefixed by "star " or "antipode "."""
    text = text.strip()
    op = None
    for prefix in ("star", "antipode"):
        if text.startswith(prefix + " "):
            op = prefix
            text = text[len(prefix) + 1:].strip()
            break
    weight_part, sep, index_part = text[2:-1].partition(")[")
    if not (text.startswith("t(") and sep and text.endswith("]")):
        raise UsageError(f"cannot parse coefficient expression {text!r}")
    weight = parse_weight(weight_part, alg.cd.rank)
    try:
        i, j = (int(x) for x in index_part.split(","))
    except ValueError:
        raise UsageError(f"bad indices in {text!r}")
    admit_module(alg.cd, weight)
    d = alg.irrep(weight).dim
    if not (1 <= i <= d and 1 <= j <= d):
        raise UsageError(f"indices {i},{j} outside 1..{d}")
    element = CoeffElement.basis(weight, i, j)
    if op == "star":
        element = star(alg, element)
    elif op == "antipode":
        element = antipode(alg, element)
    return element


def cmd_haar(args, stream):
    cd = cartan_data(args.algebra)
    v0 = parse_v0(args.v0) if args.v0 else None
    alg = CoeffAlgebra(cd)
    a = parse_coeff_expr(alg, args.pair[0])
    b = parse_coeff_expr(alg, args.pair[1])
    value = haar(alg, product(alg, a, b))
    obj = {
        "algebra": cd.name,
        "pair": list(args.pair),
        "integral": rf_to_text(value),
        "csv": [["integral"], [rf_to_text(value)]],
    }
    lines = [f"integral of ({args.pair[0]}) * ({args.pair[1]}) = {value}"]
    if v0 is not None:
        num = specialize(value, v0)
        obj["value_at_v0"] = str(num.value)
        lines.append(f"  at v = {args.v0}: {num.value}")
    emit(obj, args.format, lines, stream)
    return EXIT_OK


def build_parser(config=None):
    config = {k: v for k, v in (config or {}).items() if k != "func"}
    parser = ArgumentParser(
        prog="qgroups",
        description="Exact computations with quantized enveloping algebras, "
                    "their matrix-coefficient quantum groups, and induced "
                    "homogeneous-bundle sections.",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "json", "csv"), default="human")
        p.add_argument("--out", help="write the report to a file instead of stdout")
        if config:
            p.set_defaults(**config)
            for action in p._actions:
                value = config.get(action.dest, action.default)
                if action.choices is not None and value not in action.choices:
                    choices = ", ".join(map(repr, action.choices))
                    raise ValueError(f"{action.option_strings[0]} is {value!r}, "
                                     f"not one of {choices}")

    p = sub.add_parser("irrep", help="build an irreducible module and check it")
    p.add_argument("--algebra", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--v0", help="also evaluate the quantum dimension at v0")
    p.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV))
    common(p)
    p.set_defaults(func=cmd_irrep)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--check", action="append",
                   help="suite name (repeatable); default: all")
    p.add_argument("--quick", action="store_true", help="shrunken grids")
    p.add_argument("--algebra", help="restrict suites to one algebra, e.g. A1")
    p.add_argument("--max-weight", type=int, dest="max_weight",
                   help="cap the sum of fundamental coordinates in the grids of "
                        "relations, dimensions, hopf (both weights of each duality "
                        "case) and all three parts of schur; the fixed-case suites "
                        "ignore it")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sections", help="dimensions of invariant functions per grade")
    p.add_argument("--algebra", required=True)
    p.add_argument("--theta", default="")
    p.add_argument("--v", default="trivial")
    p.add_argument("--trunc", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("borel-weil", help="holomorphic sections of an induced bundle")
    p.add_argument("--algebra", required=True)
    p.add_argument("--theta", default="")
    p.add_argument("--mu", required=True)
    p.add_argument("--trunc", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_borel_weil)

    p = sub.add_parser("frobenius", help="reciprocity for one (W, V) pair")
    p.add_argument("--algebra", required=True)
    p.add_argument("--theta", default="")
    p.add_argument("--w", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--trunc", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("haar", help="integral of a product of two coefficients")
    p.add_argument("--algebra", required=True)
    p.add_argument("--pair", nargs=2, required=True,
                   metavar=("A", "B"),
                   help='expressions like "t(1)[1,1]" or "star t(1)[1,1]"')
    p.add_argument("--v0")
    common(p)
    p.set_defaults(func=cmd_haar)
    return parser


def main(argv=None):
    pre = ArgumentParser(prog="qgroups", add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    config = None
    try:
        if known.config:
            with open(known.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"expected a JSON object, not {type(config).__name__}")
        # config values become subcommand defaults; explicit flags win
        parser = build_parser(config)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    # the report is rendered whole before anything is written, so a failed
    # command leaves no partial --out file
    stream = io.StringIO() if out else sys.stdout
    try:
        code = args.func(args, stream)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CacheIntegrityError as exc:
        print(f"cache integrity error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except MemoryError:
        print("error: out of memory; the request is too large", file=sys.stderr)
        return EXIT_USAGE
    if out:
        try:
            atomic_write(out, stream.getvalue())
        except OSError as exc:
            print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
