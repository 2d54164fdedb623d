"""Command-line front end.

Every subcommand loads a root datum (preset name, or path to a JSON preset
file; the UQBENCH_PRESET_PATH environment variable prepends search
directories), runs one computation, and prints a canonical JSON report to
stdout: keys sorted, q-scalars and rationals in fixed string form, no
timestamps, so identical configurations produce byte-identical output.
The fully resolved configuration is echoed into each report.

Exit codes: 0 success, 1 mathematical failure (a check returned false or a
solver hit a window obstruction), 2 configuration error, 3 truncation
window error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .deform import (GEN_MONO, SeriesElement, TruncatedUg, conjugate_map,
                     conjugation_residuals, derivation_gauge, identity_map,
                     mult_trivialize, plant_deformation, rigidity_conjugator)
from .errors import CapError, ConfigError, ObstructionError
from .nichols import NicholsContext, serre_element
from .norms import (RadiusParams, admissible, coaction_convergence,
                    reverify_certificate, rmatrix_condition)
from .rootdata import load_datum
from .scalars import PadicParams, ScalarQ, ValuationError, is_prime, vp
from .uq import (UqContext, check_antipode, check_coassociativity,
                 check_coproduct_multiplicative, check_counit)
from .weightmods import (_multidegrees, build_mlambda, build_verma, braid_rep,
                         ybe_check)

EXIT_MATH = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _jsonable(value):
    """Convert report values to canonical JSON-safe forms."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


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
        "weights": {str(l): list(M.weights[l]) for l in labels},
        "norm_exponents": {str(l): str(M.norm_exps[l]) for l in labels},
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


def _emit(args, config: dict, result: dict, status: str) -> None:
    report = {
        "command": args.command,
        "config": _jsonable(config),
        "result": _jsonable(result),
        "status": status,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)


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
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise ConfigError(f"bad monomial exponents {text!r}") from exc


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
    if args.max_degree < 0:
        raise ConfigError(f"--max-degree must be >= 0, got {args.max_degree}")
    datum = load_datum(args.datum)
    ctx = NicholsContext(datum, cap=max(args.max_degree, 2))
    dims = {}
    for total in range(args.max_degree + 1):
        for deg in _multidegrees(datum.rank, total):
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
            deg = [0] * datum.rank
            deg[i] = 1 - datum.cartan[i][j]
            deg[j] = 1
            in_rad = ctx.reduce_mod_radical(elt).is_zero()
            all_ok = all_ok and in_rad
            pairs.append({
                "pair": str((i, j)),
                "degree": str(tuple(deg)),
                "in_radical": in_rad,
                "radical_dim": len(ctx.radical_basis(tuple(deg))),
            })
    summary = (f"PASS: {len(pairs)} Serre elements in radical" if all_ok
               else "FAIL: some Serre elements escape the radical")
    return ({"pairs": pairs, "summary": summary},
            "PASS" if all_ok else "FAIL")


def _sample_elements(ctx: UqContext, rng: random.Random, count: int):
    """Deterministic pseudo-random elements of generator degree <= 3."""
    rank = ctx.datum.rank
    atoms = []
    for i in range(rank):
        atoms.append(ctx.e_gen(i))
        atoms.append(ctx.f_gen(i))
        unit = [0] * rank
        unit[i] = 1
        atoms.append(ctx.k_elt(tuple(unit)))
        atoms.append(ctx.k_elt(tuple(-u for u in unit)))
    out = []
    for _ in range(count):
        length = rng.randint(1, 3)
        factors = [atoms[rng.randrange(len(atoms))] for _ in range(length)]
        elt = ctx.multiply_all(factors)
        elt = elt.scale(ScalarQ.from_int(rng.choice([-2, -1, 1, 2, 3])))
        if rng.random() < 0.5:
            extra = atoms[rng.randrange(len(atoms))]
            elt = elt + extra
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
    module_cap = args.cap if args.module_cap is None else args.module_cap
    M = build_verma(datum, _parse_weight(args.lam), module_cap)
    try:
        word = tuple(int(x) for x in args.word.split(",") if x)
    except ValueError as exc:
        raise ConfigError(f"bad braid word {args.word!r}") from exc
    basis, mat = braid_rep(datum, M, args.strands, word, args.cap)
    return {
        "basis": [str(t) for t in basis],
        "dimension": len(basis),
        "matrix": [[str(c) for c in row] for row in mat],
    }, "OK"


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


def _padic_params(args) -> PadicParams:
    """(p, vh) from the command line; outside the domain is a ConfigError."""
    vh = _fraction(args.vh)
    try:
        return PadicParams(args.p, vh)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_converge_cert(args):
    params = _padic_params(args)
    radii = RadiusParams(_fraction(args.r_exp), _fraction(args.s_exp))
    cert = coaction_convergence(params, radii)
    ok = reverify_certificate(cert, params)
    result = dict(cert.to_dict())
    result["reverified"] = ok
    return result, "PASS" if ok else "FAIL"


def cmd_admissible(args):
    datum = load_datum(args.datum)
    params = _padic_params(args)
    radii = RadiusParams(_fraction(args.r_exp), _fraction(args.s_exp))
    try:
        verdict = admissible(datum, params, radii)
    except ValuationError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        rmatrix = rmatrix_condition(datum, params)
    except ConfigError:
        rmatrix = None
    result = {"admissible": verdict, "rmatrix_condition": rmatrix}
    if verdict is None:
        return result, "INDETERMINATE"
    return result, "PASS" if verdict else "FAIL"


def cmd_rigidity_solve(args):
    if args.prime and not is_prime(args.prime):
        raise ConfigError(f"--prime must be 0 or a prime, got {args.prime}")
    datum = load_datum(args.datum)
    algebra = TruncatedUg(datum, args.cap, args.window)
    seed_mono = _parse_mono(args.seed_coeff)
    d = identity_map(algebra, args.order, gens_only=True)
    seed = SeriesElement(algebra, [algebra.one(), {seed_mono: Fraction(1)}]
                         + [{} for _ in range(max(0, args.order - 1))])
    d_prime = conjugate_map(seed, d, args.order)
    F, transcript = rigidity_conjugator(d, d_prime, args.order,
                                        with_transcript=True)
    residuals = conjugation_residuals(F, d, d_prime, args.order)
    residual_zero = all(not r for per in residuals.values() for r in per)
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
        "conjugator": [_element_str(c) for c in F.coeffs],
        "transcript": entries,
        "residual_zero_mod_next_order": residual_zero,
    }
    return result, "PASS" if residual_zero else "FAIL"


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
            else {_parse_mono(dst.strip()): Fraction(1)}
        gen_images[mono] = image
    gauge = derivation_gauge(algebra, gen_images)
    mu = plant_deformation(algebra, gauge, args.order)
    V, transcript = mult_trivialize(algebra, mu, args.order,
                                    with_transcript=True)
    entries = [{
        "order": entry["order"], "defect": entry["defect"],
        "beta": {str(m): _element_str(col)
                 for m, col in sorted(entry["beta"].items())},
    } for entry in transcript]
    gauge_cols = {}
    for m, col in sorted(V.columns.items()):
        gauge_cols[str(m)] = [_element_str(c) for c in col]
    result = {
        "planted_order1_terms": len(mu[1]) if len(mu) > 1 else 0,
        "transcript": entries,
        "gauge": gauge_cols,
        "verified": True,
    }
    return result, "PASS"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqbench",
        description="Exact workbench for root-datum quantum groups: Nichols "
                    "algebra dimensions, Hopf and braiding checks, windowed "
                    "weight modules, convergence certificates, and truncated "
                    "deformation solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="also write the report to this file")
        return p

    p = add("nichols-dims", cmd_nichols_dims,
            "table of multidegree -> Nichols algebra dimension")
    p.add_argument("--datum", required=True)
    p.add_argument("--max-degree", type=int, default=4)

    p = add("serre-check", cmd_serre_check,
            "Serre elements lie in the pairing radical")
    p.add_argument("--datum", required=True)
    p.add_argument("--cap", type=int, default=8)

    p = add("hopf-check", cmd_hopf_check,
            "Hopf axioms and the reordering identity")
    p.add_argument("--datum", required=True)
    p.add_argument("--cap", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=4)

    p = add("ybe-check", cmd_ybe_check,
            "braid relation on a Verma window")
    p.add_argument("--datum", required=True)
    p.add_argument("--lam", default="2",
                   help="highest weight: integer or comma list")
    p.add_argument("--cap", type=int, default=3)

    p = add("braid-rep", cmd_braid_rep,
            "matrix of a braid word on a tensor power window")
    p.add_argument("--datum", required=True)
    p.add_argument("--lam", default="1",
                   help="highest weight: integer or comma list")
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--word", default="1")
    p.add_argument("--cap", type=int, default=2,
                   help="total depth cap for the tensor basis")
    p.add_argument("--module-cap", type=int, default=None,
                   help="f-degree cap of each tensor factor "
                        "(default: same as --cap)")

    p = add("verma", cmd_verma, "windowed Verma module tables")
    p.add_argument("--datum", required=True)
    p.add_argument("--lam", default="3",
                   help="highest weight: integer or comma list")
    p.add_argument("--cap", type=int, default=4)

    p = add("mlambda", cmd_mlambda,
            "windowed dense weight module tables")
    p.add_argument("--datum", required=True)
    p.add_argument("--lam", type=int, default=3)
    p.add_argument("--window", default="3,3")

    p = add("converge-cert", cmd_converge_cert,
            "valuation slope certificate for coaction series")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--vh", required=True)
    p.add_argument("--r-exp", default="0")
    p.add_argument("--s-exp", default="0")

    p = add("admissible", cmd_admissible,
            "radius admissibility and the R-matrix valuation bound")
    p.add_argument("--datum", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--vh", required=True)
    p.add_argument("--r-exp", default="0")
    p.add_argument("--s-exp", default="0")

    p = add("rigidity-solve", cmd_rigidity_solve,
            "conjugate a planted deformation of the enveloping algebra")
    p.add_argument("--datum", default="A1")
    p.add_argument("--cap", type=int, default=6)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--seed-coeff", default="E",
                   help="order-1 coefficient of the planted conjugator "
                        "(E, H, F or 'a,b,c')")
    p.add_argument("--prime", type=int, default=0,
                   help="if set, annotate the chosen u_n with p-adic "
                        "coefficient valuations")

    p = add("trivialize", cmd_trivialize,
            "remove a planted multiplication deformation")
    p.add_argument("--datum", default="A1")
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--plant", action="append", default=None,
                   help="generator image of the planted gauge, like E=H "
                        "(repeatable; default E=H)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "trivialize" and args.plant is None:
        args.plant = ["E=H"]
    config = _config_echo(args)
    try:
        result, status = args.func(args)
    except ConfigError as exc:
        _emit(args, config, {"error": str(exc)}, "ERROR")
        return EXIT_CONFIG
    except CapError as exc:
        _emit(args, config, {"error": str(exc)}, "ERROR")
        return EXIT_CAP
    except ObstructionError as exc:
        _emit(args, config,
              {"error": str(exc), "obstructed_order": exc.order}, "FAIL")
        return EXIT_MATH
    _emit(args, config, result, status)
    if status in {"FAIL",}:
        return EXIT_MATH
    return 0


if __name__ == "__main__":
    sys.exit(main())
