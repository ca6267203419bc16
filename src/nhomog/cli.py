"""Batch command-line surface.

Subcommands: analyze, spectrum, calc, sw-check, haar, nspace.  Inputs are
JSON files (complex entries as [re, im] pairs), reports are canonical
JSON on stdout (or --out), diagnostics go to stderr.  Exit codes:
0 success / true verdict, 1 clean false verdict, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .calculus import OrbitTable, StarPolynomial, calc
from .decomposition import homogeneity_verdict, n_spectrum
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    DomainError,
    HypothesisViolated,
    IndexOutOfRange,
    MCBudgetTooSmall,
    NHomogError,
    NotAStarHom,
    NotHermitian,
    NotNHomogeneous,
    NotSquare,
    NumericalFailure,
    ParseError,
    PreconditionFailed,
    SamePoint,
    SchemaError,
    SpaceMismatch,
    SpectraNotDisjoint,
    TableMismatch,
)
from .haar import HaarSampler, McConfig, haar_unitaries, mc_radius, mc_twirl, twirl_exact
from .matrix_core import DEFAULT_TOL, Tolerance, opnorm
from .n_space import classify_matrix_rep, ideal_set_correspondence
from .sw_engine import closure_star_subalgebra, delta2_subspace, density_check

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (
    ParseError,
    SchemaError,
    ArityMismatch,
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    NotHermitian,
    NotSquare,
    NotAStarHom,
    SamePoint,
    SpaceMismatch,
    SpectraNotDisjoint,
    TableMismatch,
    PreconditionFailed,
    MCBudgetTooSmall,
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str
    n: int | None
    tol: Tolerance
    seed: int
    samples: int
    out: str | None
    human: bool


def _tolerance_from_flag(tol_flag: float | None) -> Tolerance:
    if tol_flag is None:
        return DEFAULT_TOL
    factor = tol_flag / DEFAULT_TOL.eq_tol
    try:
        return Tolerance(rank_cut=DEFAULT_TOL.rank_cut * factor, psd_slack=tol_flag, eq_tol=tol_flag)
    except ValueError as exc:
        raise SchemaError(f"--tol: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhomog",
        description="Finite matrix *-algebra analysis: block decomposition, spectra, "
        "functional calculus, and function-algebra density checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "decide n-homogeneity of a matrix tuple"),
        ("spectrum", "orbit representatives and multiplicities of an n-homogeneous tuple"),
        ("calc", "apply a *-polynomial or orbit table through the decomposition"),
        ("sw-check", "density / two-point approximability report for a function algebra"),
        ("haar", "unitary-average diagnostics: exact twirl vs Monte Carlo"),
        ("nspace", "ideal correspondence and representation classification"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="input_path", required=True, help="input JSON file")
        p.add_argument("--n", type=int, default=None, help="block size for homogeneity checks")
        p.add_argument("--tol", type=float, default=None, help="override eq_tol/psd_slack (rank_cut scales along)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for stochastic steps (default: NHOMOG_SEED or 0)")
        p.add_argument("--samples", type=int, default=20000, help="Monte Carlo sample budget")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        p.add_argument("--human", action="store_true", help="append a text summary after the JSON")
    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        seed = args.seed
    else:
        env = os.environ.get("NHOMOG_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError as exc:
            raise SchemaError(f"NHOMOG_SEED must be an integer, got {env!r}") from exc
    if args.n is not None and args.n < 1:
        raise SchemaError(f"--n must be >= 1, got {args.n}")
    return RunConfig(
        command=args.command,
        input_path=args.input_path,
        n=args.n,
        tol=_tolerance_from_flag(args.tol),
        seed=seed,
        samples=args.samples,
        out=args.out,
        human=args.human,
    )


def _stamp(cfg: RunConfig, report: dict) -> dict:
    report["tolerance"] = cfg.tol.to_json()
    report["seed"] = cfg.seed
    return report


def _require_n(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise SchemaError(f"command '{cfg.command}' requires --n")
    return cfg.n


def _cmd_analyze(cfg: RunConfig) -> tuple[int, dict, list[str]]:
    payload = jsonio.load_json(cfg.input_path)
    t = jsonio.decode_tuple(payload)
    report = homogeneity_verdict(t, _require_n(cfg), cfg.tol, cfg.seed)
    code = EXIT_OK if report.is_n_homogeneous else EXIT_FALSE
    human = [
        f"{'is' if report.is_n_homogeneous else 'is NOT'} {report.n}-homogeneous: {report.reason}",
        f"nonzero block dims {list(report.block_dims)}, zero dim {report.zero_dim}",
    ]
    return code, report.to_json(), human


def _cmd_spectrum(cfg: RunConfig) -> tuple[int, dict, list[str]]:
    payload = jsonio.load_json(cfg.input_path)
    t = jsonio.decode_tuple(payload)
    n = _require_n(cfg)
    try:
        spec = n_spectrum(t, n, cfg.tol, cfg.seed)
    except NotNHomogeneous as exc:
        return EXIT_FALSE, {"is_n_homogeneous": False, "n": n, "reason": str(exc)}, [str(exc)]
    report = {
        "n": spec.n,
        "points": [
            {"multiplicity": m, "generators": [jsonio.encode_matrix(g) for g in p.gens]}
            for p, m in zip(spec.points, spec.multiplicities)
        ],
        "zero_in_closure": spec.zero_in_closure,
    }
    human = [f"{len(spec.points)} orbit(s); multiplicities {list(spec.multiplicities)}"]
    return EXIT_OK, report, human


def _cmd_calc(cfg: RunConfig) -> tuple[int, dict, list[str]]:
    payload = jsonio.load_json(cfg.input_path)
    if not isinstance(payload, dict) or "tuple" not in payload:
        raise SchemaError("calc input needs a 'tuple' field")
    t = jsonio.decode_tuple(payload["tuple"])
    if cfg.n is not None:
        report = homogeneity_verdict(t, cfg.n, cfg.tol, cfg.seed)
        if not report.is_n_homogeneous:
            return EXIT_FALSE, report.to_json(), [f"tuple is not {cfg.n}-homogeneous"]
        dec = report.decomposition
    else:
        from .decomposition import decompose

        dec = decompose(t, cfg.tol, cfg.seed)
    if "polynomial" in payload:
        if not isinstance(payload["polynomial"], str):
            raise SchemaError("'polynomial' must be a string")
        try:
            f = StarPolynomial.parse(payload["polynomial"], t.k)
        except ValueError as exc:
            raise SchemaError(f"polynomial: {exc}") from exc
    elif "table" in payload:
        tbl = payload["table"]
        if not isinstance(tbl, dict) or "values" not in tbl:
            raise SchemaError("'table' needs a 'values' field")
        values = [jsonio.decode_matrix(v, f"table.values[{i}]") for i, v in enumerate(tbl["values"])]
        f = OrbitTable.for_decomposition(dec, values)
    else:
        raise SchemaError("calc input needs a 'polynomial' or 'table' field")
    result = calc(f, dec, cfg.tol)
    report = {"result": jsonio.encode_matrix(result), "classes": len(dec.classes)}
    return EXIT_OK, report, [f"result norm {opnorm(result):.6g}"]


def _cmd_sw_check(cfg: RunConfig) -> tuple[int, dict, list[str]]:
    payload = jsonio.load_json(cfg.input_path)
    points, n, gens = jsonio.decode_fn_algebra_input(payload)
    algebra = closure_star_subalgebra(gens, points=points, n=n, tol=cfg.tol)
    density = density_check(algebra, cfg.tol, cfg.seed)
    d2 = delta2_subspace(algebra, cfg.tol)
    contained = all(d2.contains(b, 1e-7) for b in algebra.basis.elements())
    report = density.to_json()
    report.update(
        {
            "points": points,
            "n": n,
            "algebra_dim": algebra.basis.dim,
            "delta2_dim": d2.dim,
            "span_equals_delta2": bool(algebra.basis.dim == d2.dim and contained),
        }
    )
    code = EXIT_OK if density.dense else EXIT_FALSE
    human = [
        f"dim E = {algebra.basis.dim} of ambient {algebra.ambient_dim}; dense: {density.dense}",
        f"delta2 dim = {d2.dim}; span == delta2: {report['span_equals_delta2']}",
    ]
    return code, report, human


def _cmd_haar(cfg: RunConfig) -> tuple[int, dict, list[str]]:
    payload = jsonio.load_json(cfg.input_path)
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise SchemaError("haar input needs a 'matrix' field")
    a = jsonio.decode_matrix(payload["matrix"], "matrix")
    if a.shape[0] != a.shape[1]:
        raise SchemaError(f"matrix must be square, got shape {a.shape}")
    if "n" in payload and int(payload["n"]) != a.shape[0]:
        raise SchemaError("'n' does not match the matrix size")
    mc = McConfig(samples=cfg.samples, seed=cfg.seed)
    exact = twirl_exact(a)
    estimate = mc_twirl(a, mc)
    deviation = opnorm(estimate - exact)
    radius = mc_radius(opnorm(a), mc.samples)
    sample_check = haar_unitaries(HaarSampler(a.shape[0], cfg.seed), 64)
    unitarity = max(
        opnorm(u.conj().T @ u - np.eye(a.shape[0])) for u in sample_check
    )
    report = {
        "exact": jsonio.encode_matrix(exact),
        "mc_estimate": jsonio.encode_matrix(estimate),
        "deviation": deviation,
        "radius": radius,
        "within_radius": bool(deviation <= radius),
        "samples": mc.samples,
        "unitarity_defect": unitarity,
    }
    human = [f"deviation {deviation:.3e} vs radius {radius:.3e} at {mc.samples} samples"]
    return EXIT_OK, report, human


def _cmd_nspace(cfg: RunConfig) -> tuple[int, dict, list[str]]:
    payload = jsonio.load_json(cfg.input_path)
    if not isinstance(payload, dict) or "space" not in payload:
        raise SchemaError("nspace input needs a 'space' field")
    space = jsonio.decode_space(payload["space"])
    gens = [
        jsonio.decode_element(g, space, f"generators[{i}]")
        for i, g in enumerate(payload.get("generators", []))
    ]
    ideal = ideal_set_correspondence(space, gens, tol=cfg.tol)
    report: dict = {
        "space": {"n": space.n, "orbits": space.orbits},
        "vanishing_set": list(ideal.vanishing_set),
        "support": list(ideal.support),
        "ideal_dim": ideal.dim,
    }
    human = [f"ideal dim {ideal.dim}; vanishing set {list(ideal.vanishing_set)}"]
    if "rep" in payload:
        images = jsonio.decode_rep_images(payload["rep"], space)
        point = classify_matrix_rep(images, space, cfg.tol)
        if point is None:
            report["classification"] = {"kind": "zero"}
            human.append("representation: zero")
        else:
            report["classification"] = {
                "kind": "point",
                "orbit": point.orbit,
                "unitary": jsonio.encode_matrix(point.u),
            }
            human.append(f"representation: evaluation at orbit {point.orbit}")
    return EXIT_OK, report, human


_COMMANDS = {
    "analyze": _cmd_analyze,
    "spectrum": _cmd_spectrum,
    "calc": _cmd_calc,
    "sw-check": _cmd_sw_check,
    "haar": _cmd_haar,
    "nspace": _cmd_nspace,
}


def run(cfg: RunConfig) -> tuple[int, str]:
    code, report, human = _COMMANDS[cfg.command](cfg)
    text = jsonio.dump_report(_stamp(cfg, report))
    if cfg.human:
        text = text + "\n" + "\n".join(f"# {line}" for line in human)
    return code, text


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        code, text = run(cfg)
    except _INPUT_ERRORS as exc:
        print(f"nhomog: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalFailure, HypothesisViolated) as exc:
        print(f"nhomog: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NHomogError as exc:
        print(f"nhomog: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
