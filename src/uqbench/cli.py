"""Command-line front end.

Every subcommand loads a root datum (preset name, or path to a JSON preset
file; the UQBENCH_PRESET_PATH environment variable prepends search
directories), runs one computation, and prints a canonical JSON report to
stdout: keys sorted, q-scalars and rationals in fixed string form, no
timestamps, so identical configurations produce byte-identical output.
The fully resolved configuration is echoed into each report.

Exit codes: 0 success, 1 mathematical failure (a check returned false or a
solver hit a window obstruction), 2 configuration error (a command line the
parser rejects included: its usage line goes to stderr, the JSON report to
stdout; a stdout that cannot be written gets one line on stderr instead), 3
truncation window error.

Each `main` call builds its own parser, from one `_COMMANDS` entry per
subcommand: the top-level parser plus only the subparser that argv[0]
names.  Without a subcommand name there (no arguments, `--help`, an unknown
command, a leading option) it builds all of them, so top-level help and
errors are those of the full tree.  Nothing is kept between calls.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .deform import (GEN_MONO, TruncatedUg, conjugate_map, derivation_gauge,
                     mult_trivialize, plant_deformation, rigidity_conjugator)
from .errors import CapError, ConfigError, ObstructionError
from .nichols import (NicholsContext, multidegrees, serre_element,
                      words_of_degree)
from .norms import (RadiusParams, admissible, coaction_convergence,
                    reverify_certificate, rmatrix_condition)
from .rootdata import load_datum
from .scalars import PadicParams, ScalarQ, ValuationError, is_prime, vp
from .uq import (UqContext, check_antipode, check_coassociativity,
                 check_coproduct_multiplicative, check_counit)
from .sparse import combine, scale
from .weightmods import (braid_rep, build_mlambda, build_verma,
                         hexagon_failures, left_hexagon_failures,
                         naturality_failures, tensor_module, ybe_check)

EXIT_MATH = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _element_str(el: dict) -> dict:
    """A deform-algebra element as {monomial string: coefficient string}."""
    return {str(m): str(c) for m, c in sorted(el.items())}


def _col_pairs(pairs) -> list:
    return [[str(label), str(c)] for label, c in pairs]


def _module_report(M) -> dict:
    labels = sorted(M.labels, key=lambda l: (len(l), l))
    rank = M.datum.rank
    report = {
        "window": M.window,
        "labels": [str(l) for l in labels],
        "weights": {str(l): list(M.weight(l)) for l in labels},
        "norm_exponents": {str(l): str(sum(M.depths[l])) for l in labels},
        "e_action": {},
        "f_action": {},
    }
    for i in range(rank):
        report["e_action"][str(i)] = {
            str(l): _col_pairs(M.e_cols[i][l])
            for l in labels if l in M.e_cols[i]}
        report["f_action"][str(i)] = {
            str(l): _col_pairs(M.f_cols[i][l])
            for l in labels if l in M.f_cols[i]}
    return report


def _write_out(out: str, text: str) -> None:
    """Write `text` to the --out path; a failure is a ConfigError."""
    try:
        with open(out, "w") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror}") from exc


def _emit(command, config: dict, result: dict, status: str, out=None) -> None:
    """Print the report, after writing it to the path `out` if given, so a
    failed write raises ConfigError before anything reaches stdout."""
    report = {"command": command, "config": config, "result": result,
              "status": status}
    # every key is a str already; default=str writes Fraction and ScalarQ
    text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if out is not None:
        _write_out(out, text)
    sys.stdout.write(text)


def _config_echo(args) -> dict:
    skip = {"func", "command", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r}") from exc


def _parse_mono(text: str) -> tuple[int, int, int]:
    """A PBW monomial: a generator letter E/H/F or exponents 'a,b,c'."""
    if text in GEN_MONO:
        return GEN_MONO[text]
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(
            f"monomial must be E, H, F or 'a,b,c' exponents, got {text!r}")
    try:
        mono = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad monomial exponents {text!r}") from exc
    if min(mono) < 0:
        raise ConfigError(f"negative exponent in monomial {text!r}")
    return mono  # type: ignore[return-value]


def _frac_valuation(c: Fraction, p: int):
    v = vp(c, p)
    return None if v is None else str(v)


def _parse_weight(text: str):
    """A highest weight: a single integer, or comma-separated coordinates."""
    try:
        if "," in text:
            return tuple(int(x) for x in text.split(","))
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"bad weight {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_nichols_dims(args):
    datum = load_datum(args.datum)
    ctx = NicholsContext(datum, cap=args.max_degree)
    dims = {}
    for total in range(args.max_degree + 1):
        for deg in multidegrees(datum.rank, total):
            dims[str(deg)] = ctx.nichols_dim(deg)
    return {"dims": dims}, "OK"


def cmd_serre_check(args):
    datum = load_datum(args.datum)
    ctx = NicholsContext(datum, cap=args.cap)
    pairs = []
    all_ok = True
    for i in range(datum.rank):
        for j in range(datum.rank):
            if i == j:
                continue
            elt = serre_element(datum, i, j)
            deg = tuple(1 - datum.cartan[i][j] if k == i else int(k == j)
                        for k in range(datum.rank))
            in_rad = not ctx.reduce_mod_radical(elt)
            all_ok = all_ok and in_rad
            pairs.append({
                "pair": str((i, j)),
                "degree": str(deg),
                "in_radical": in_rad,
                "radical_dim": len(words_of_degree(deg)) - ctx.nichols_dim(deg),
            })
    summary = (f"PASS: {len(pairs)} Serre elements in radical" if all_ok
               else "FAIL: some Serre elements escape the radical")
    return ({"pairs": pairs, "summary": summary},
            "PASS" if all_ok else "FAIL")


def _sample_elements(ctx: UqContext, rng: random.Random, count: int):
    """Deterministic pseudo-random elements of generator degree <= 3."""
    atoms = []
    for i in range(ctx.datum.rank):
        atoms.append(ctx.e_gen(i))
        atoms.append(ctx.f_gen(i))
        unit = tuple(int(j == i) for j in range(ctx.datum.lattice_rank))
        atoms.append(ctx.k_elt(unit))
        atoms.append(ctx.k_elt(tuple(-u for u in unit)))
    out = []
    for _ in range(count):
        length = rng.randint(1, 3)
        factors = [atoms[rng.randrange(len(atoms))] for _ in range(length)]
        elt = ctx.multiply_all(factors)
        elt = scale(elt, ScalarQ.from_int(rng.choice([-2, -1, 1, 2, 3])))
        if rng.random() < 0.5:
            elt = combine(elt, atoms[rng.randrange(len(atoms))])
        out.append(elt)
    return out


def cmd_hopf_check(args):
    datum = load_datum(args.datum)
    ctx = UqContext(datum, cap=args.cap)
    rng = random.Random(args.seed)
    elements = []
    for i in range(datum.rank):
        elements.append(ctx.e_gen(i))
        elements.append(ctx.f_gen(i))
    elements += _sample_elements(ctx, rng, args.samples)
    checks = {
        "coproduct_multiplicative": all(
            check_coproduct_multiplicative(ctx, elements[k],
                                           elements[(k + 1) % len(elements)])
            for k in range(len(elements))),
        "counit": all(check_counit(ctx, x) for x in elements),
        "coassociativity": all(
            check_coassociativity(ctx, x) for x in elements),
        "antipode": all(check_antipode(ctx, x) for x in elements),
    }
    reorder_ok = True
    for i in range(datum.rank):
        for j in range(datum.rank):
            direct = ctx.multiply(ctx.e_gen(i), ctx.f_gen(j))
            reordered = ctx.drinfeld_reorder((i,), (j,))
            if direct != reordered:
                reorder_ok = False
    checks["reorder_matches_multiply"] = reorder_ok
    ok = all(checks.values())
    return ({"checks": checks, "elements_tested": len(elements)},
            "PASS" if ok else "FAIL")


def cmd_ybe_check(args):
    datum = load_datum(args.datum)
    M = build_verma(datum, _parse_weight(args.lam), args.cap)
    ok = ybe_check(datum, M, args.cap)
    return {"ybe": ok}, "PASS" if ok else "FAIL"


def cmd_braid_rep(args):
    datum = load_datum(args.datum)
    letters = args.word.split(",") if args.word else []
    if "" in letters:
        raise ConfigError(f"empty letter in braid word {args.word!r}")
    try:
        word = tuple(int(x) for x in letters)
    except ValueError as exc:
        raise ConfigError(f"bad braid word {args.word!r}") from exc
    module_cap = args.cap if args.module_cap is None else args.module_cap
    M = build_verma(datum, _parse_weight(args.lam), module_cap)
    basis, mat = braid_rep(datum, M, args.strands, word, args.cap)
    return {
        "basis": [str(t) for t in basis],
        "dimension": len(basis),
        "matrix": [[str(c) for c in row] for row in mat],
    }, "OK"


def cmd_braided_check(args):
    """Naturality and both hexagons on Vermas M, N of weights --lam and
    --lam2, each summed over the orders (M, N) and (N, M); the tensor
    windows M (x) N and N (x) M are built once and serve all three."""
    datum = load_datum(args.datum)
    M = build_verma(datum, _parse_weight(args.lam), args.cap)
    N = build_verma(datum, _parse_weight(args.lam2), args.cap)
    mn, nm = tensor_module(datum, M, N), tensor_module(datum, N, M)
    runs = {
        "naturality": (naturality_failures(datum, M, N, mn, nm),
                       naturality_failures(datum, N, M, nm, mn)),
        "right_hexagon": (hexagon_failures(datum, M, N, M, nm),
                          hexagon_failures(datum, N, M, N, mn)),
        "left_hexagon": (left_hexagon_failures(datum, M, N, mn),
                         left_hexagon_failures(datum, N, M, nm)),
    }
    result = {}
    for name, pairs in runs.items():
        cases, failures = map(sum, zip(*pairs))
        result[name] = {"cases": cases, "failures": failures}
    ok = not any(r["failures"] for r in result.values())
    return result, "PASS" if ok else "FAIL"


def cmd_verma(args):
    datum = load_datum(args.datum)
    M = build_verma(datum, _parse_weight(args.lam), args.cap)
    return _module_report(M), "OK"


def cmd_mlambda(args):
    datum = load_datum(args.datum)
    try:
        i_cap, j_cap = (int(x) for x in args.window.split(","))
    except ValueError as exc:
        raise ConfigError(
            f"window must be 'I,J' integers, got {args.window!r}") from exc
    M = build_mlambda(datum, args.lam, (i_cap, j_cap))
    return _module_report(M), "OK"


def _padic_params(args) -> tuple[PadicParams, RadiusParams]:
    """(p, vh) and the radii; outside their domain is a ConfigError."""
    vh = _fraction(args.vh)
    try:
        params = PadicParams(args.p, vh)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params, RadiusParams(_fraction(args.r_exp), _fraction(args.s_exp))


def cmd_converge_cert(args):
    params, radii = _padic_params(args)
    cert = coaction_convergence(params, radii)
    result = dict(cert.to_dict())
    result["reverified"] = reverify_certificate(cert, params)
    return result, "PASS" if result["reverified"] else "FAIL"


def cmd_admissible(args):
    datum = load_datum(args.datum)
    params, radii = _padic_params(args)
    try:
        verdict = admissible(datum, params, radii)
    except ValuationError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        rmatrix = rmatrix_condition(datum, params)
    except ConfigError:
        rmatrix = None
    result = {"admissible": verdict, "rmatrix_condition": rmatrix}
    return result, "PASS" if verdict else "FAIL"


def cmd_rigidity_solve(args):
    if args.prime and not is_prime(args.prime):
        raise ConfigError(f"--prime must be 0 or a prime, got {args.prime}")
    datum = load_datum(args.datum)
    algebra = TruncatedUg(datum, args.cap, args.window)
    seed_mono = _parse_mono(args.seed_coeff)
    d_prime = conjugate_map(algebra, [algebra.one(), {seed_mono: 1}],
                            args.order)
    F, transcript = rigidity_conjugator(algebra, d_prime, args.order)
    entries = []
    for entry in transcript:
        row = {"order": entry["order"], "defect": entry["defect"],
               "u": _element_str(entry["u"])}
        if args.prime:
            row["u_valuations"] = {
                str(m): _frac_valuation(c, args.prime)
                for m, c in sorted(entry["u"].items())}
        entries.append(row)
    result = {
        "conjugator": [_element_str(c) for c in F],
        "transcript": entries,
        # rigidity_conjugator checked it; a failed check exits 1 with FAIL
        "residual_zero_mod_next_order": True,
    }
    return result, "PASS"


def cmd_trivialize(args):
    datum = load_datum(args.datum)
    algebra = TruncatedUg(datum, args.cap, args.window)
    gen_images: dict = {}
    for plant in args.plant:
        if "=" not in plant:
            raise ConfigError(f"plant must look like 'E=H', got {plant!r}")
        src, dst = plant.split("=", 1)
        mono = _parse_mono(src.strip())
        if mono not in GEN_MONO.values():
            raise ConfigError(f"plant source must be a generator: {plant!r}")
        image = {} if dst.strip() in {"0", ""} \
            else {_parse_mono(dst.strip()): 1}
        # a higher-degree image leaves every window: no cap decides it
        if any(sum(m) > 1 for m in image):
            raise ConfigError(f"plant image must have degree <= 1: {plant!r}")
        if mono in gen_images:
            raise ConfigError(f"plant source {src.strip()!r} given twice")
        gen_images[mono] = image
    gauge = derivation_gauge(algebra, gen_images)
    mu = plant_deformation(algebra, gauge, args.order)
    V, transcript = mult_trivialize(algebra, mu, args.order)
    entries = [{
        "order": entry["order"], "defect": entry["defect"],
        "beta": {str(m): _element_str(col)
                 for m, col in sorted(entry["beta"].items())},
    } for entry in transcript]
    gauge_cols = {str(m): [_element_str(v_k.get(m, {})) for v_k in V]
                  for m in sorted(V[0])}
    result = {
        "planted_order1_terms": len(mu[1]) if len(mu) > 1 else 0,
        "transcript": entries,
        "gauge": gauge_cols,
        # mult_trivialize checked it; a failed check exits 1 with FAIL
        "verified": True,
    }
    return result, "PASS"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _UsageError(ConfigError):
    """argparse rejected the command line.  `command` names the subcommand
    whose options were wrong, or is None when the subcommand itself was."""

    def __init__(self, message: str, command: str | None):
        super().__init__(message)
        self.command = command


class _Help(argparse.Action):
    """`-h/--help` as argparse's own, except that an OSError of the write
    reaches `main`, which exits 2: argparse's own drops it and exits 0."""

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(parser.format_help())
        sys.stdout.flush()
        parser.exit()


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that prints its usage line to stderr as usual but
    raises _UsageError instead of exiting, so `main` can print the JSON
    report; `--help` still exits 0 when its text is written."""

    command: str | None = None  # set on each subcommand's parser

    def __init__(self, **kwargs):
        super().__init__(add_help=False, **kwargs)
        self.add_argument("-h", "--help", action=_Help, nargs=0,
                          default=argparse.SUPPRESS,
                          help="show this help message and exit")

    def error(self, message, command=None):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message, command or self.command)

    def parse_args(self, args=None, namespace=None):
        # as argparse's own, but naming the subcommand in the report
        parsed, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}",
                       parsed.command)
        return parsed


_LAM_HELP = "highest weight: integer or comma list"
_DATUM = ("--datum", {"required": True})
_PADIC = [("--p", {"type": int, "required": True}),
          ("--vh", {"required": True}),
          ("--r-exp", {"default": "0"}), ("--s-exp", {"default": "0"})]


def _int(default, **kwargs) -> dict:
    return {"type": int, "default": default, **kwargs}


# name -> (handler, help text, options as (flag, add_argument kwargs)); every
# subcommand also takes --out, and its parser is built from this entry alone
_COMMANDS = {
    "nichols-dims": (
        cmd_nichols_dims,
        "table of multidegree -> Nichols algebra dimension",
        [_DATUM, ("--max-degree", _int(4))]),
    "serre-check": (
        cmd_serre_check,
        "Serre elements lie in the pairing radical",
        [_DATUM, ("--cap", _int(8))]),
    "hopf-check": (
        cmd_hopf_check,
        "Hopf axioms and the reordering identity",
        [_DATUM, ("--cap", _int(8)), ("--seed", _int(0)),
         ("--samples", _int(4))]),
    "ybe-check": (
        cmd_ybe_check,
        "braid relation on a Verma window",
        [_DATUM, ("--lam", {"default": "2", "help": _LAM_HELP}),
         ("--cap", _int(3))]),
    "braid-rep": (
        cmd_braid_rep,
        "matrix of a braid word on a tensor power window",
        [_DATUM, ("--lam", {"default": "1", "help": _LAM_HELP}),
         ("--strands", _int(3)), ("--word", {"default": "1"}),
         ("--cap", _int(2, help="total depth cap for the tensor basis")),
         ("--module-cap", _int(None, help="f-degree cap of each tensor "
                               "factor (default: same as --cap)"))]),
    "braided-check": (
        cmd_braided_check,
        "naturality and both hexagons on two Verma windows",
        [_DATUM, ("--lam", {"default": "2", "help": _LAM_HELP}),
         ("--lam2", {"default": "-1", "help": "highest weight of the "
                     "second Verma, as --lam"}),
         ("--cap", _int(4))]),
    "verma": (
        cmd_verma,
        "windowed Verma module tables",
        [_DATUM, ("--lam", {"default": "3", "help": _LAM_HELP}),
         ("--cap", _int(4))]),
    "mlambda": (
        cmd_mlambda,
        "windowed dense weight module tables",
        [_DATUM, ("--lam", _int(3)), ("--window", {"default": "3,3"})]),
    "converge-cert": (
        cmd_converge_cert,
        "valuation slope certificate for coaction series",
        _PADIC),
    "admissible": (
        cmd_admissible,
        "radius admissibility and the R-matrix valuation bound",
        [_DATUM, *_PADIC]),
    "rigidity-solve": (
        cmd_rigidity_solve,
        "conjugate a planted deformation of the enveloping algebra",
        [("--datum", {"default": "A1"}), ("--cap", _int(6)),
         ("--window", _int(3)), ("--order", _int(4)),
         ("--seed-coeff", {"default": "E", "help": "order-1 coefficient of "
                           "the planted conjugator (E, H, F or 'a,b,c')"}),
         ("--prime", _int(0, help="if set, annotate the chosen u_n with "
                          "p-adic coefficient valuations"))]),
    "trivialize": (
        cmd_trivialize,
        "remove a planted multiplication deformation",
        [("--datum", {"default": "A1"}), ("--cap", _int(4)),
         ("--window", _int(2)), ("--order", _int(1)),
         ("--plant", {"action": "append", "default": None,
                      "help": "generator image of the planted gauge, like "
                      "E=H, of degree <= 1 (repeatable; default E=H)"})]),
}


def build_parser(names=None) -> argparse.ArgumentParser:
    """The parser with a subparser for each of `names`, or for every
    subcommand when `names` is None."""
    parser = _Parser(
        prog="uqbench",
        description="Exact workbench for root-datum quantum groups: Nichols "
                    "algebra dimensions, Hopf and braiding checks, windowed "
                    "weight modules, convergence certificates, and truncated "
                    "deformation solvers.")
    # a subset keeps the usage line that names every subcommand; the full
    # tree leaves metavar unset, as its errors name the argument `command`
    metavar = None if names is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if names is None else names:
        handler, help_text, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.command = name
        p.set_defaults(func=handler)
        p.add_argument("--out", help="also write the report to this file")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def _run(argv: list) -> int:
    try:
        # only the subparser that argv[0] names; help and errors that
        # list the subcommands get the full tree
        names = argv[:1] if argv and argv[0] in _COMMANDS else None
        args = build_parser(names).parse_args(argv)
    except _UsageError as exc:
        _emit(exc.command, {"argv": argv}, {"error": str(exc)}, "ERROR")
        return EXIT_CONFIG
    if args.command == "trivialize" and args.plant is None:
        args.plant = ["E=H"]
    config = _config_echo(args)
    out = args.out
    try:
        if out is not None:
            # written before any work, so an unwritable path costs no run
            _write_out(out, "")
        try:
            for name in ("cap", "max_degree", "samples", "order"):
                value = getattr(args, name, 0)
                if value < 0:
                    flag = name.replace("_", "-")
                    raise ConfigError(f"--{flag} must be >= 0, got {value}")
            result, status = args.func(args)
            code = EXIT_MATH if status == "FAIL" else 0
        except ConfigError as exc:
            result, status, code = {"error": str(exc)}, "ERROR", EXIT_CONFIG
        except CapError as exc:
            result, status, code = {"error": str(exc)}, "ERROR", EXIT_CAP
        except ObstructionError as exc:
            result = {"error": str(exc), "obstructed_order": exc.order}
            status, code = "FAIL", EXIT_MATH
        _emit(args.command, config, result, status, out)
    except ConfigError as exc:  # from --out: the run's own are caught above
        _emit(args.command, config, {"error": str(exc)}, "ERROR")
        return EXIT_CONFIG
    return code


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()
    except OSError as exc:
        # --out and preset reads map their own OSErrors, so stdout failed:
        # no report can be printed, and the interpreter's own flush of
        # stdout at exit must not fail a second time
        print(f"uqbench: cannot write the report to stdout: {exc.strerror}",
              file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
