"""Batch command-line surface.

Subcommands: analyze, spectrum, calc, sw-check, haar, nspace.  Inputs are
JSON files (complex entries as [re, im] pairs), reports are canonical
JSON on stdout (or --out), diagnostics go to stderr.  Exit codes:
0 success / true verdict, 1 clean false verdict, 2 input error,
3 numerical failure.

Each command imports the modules that do its work when it runs, so a
process loads only what its command uses.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .decomposition import decompose, homogeneity_verdict, n_spectrum
from .errors import (HypothesisViolated, InputError, NHomogError, NotNHomogeneous, NumericalFailure, ParseError,
                     SchemaError)
from .matrix_core import DEFAULT_TOL, Tolerance, adj, opnorm

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# bytes: ``haar`` keeps the (samples, n, n) complex phase-fixed Haar stack,
# samples n^2 16 bytes, its peak beside block-sized temporaries, and
# refuses a larger budget
HAAR_STACK_CAP = 1 << 30


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


_COMMAND_HELP = """\
commands:
  analyze   decide n-homogeneity of a matrix tuple
  spectrum  orbit representatives and multiplicities of an n-homogeneous tuple
  calc      apply a *-polynomial or orbit table through the decomposition
  sw-check  density / two-point approximability report for a function algebra
  haar      unitary-average diagnostics: exact twirl vs Monte Carlo
  nspace    ideal correspondence and representation classification
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhomog",
        description="Finite matrix *-algebra analysis: block decomposition, spectra,\n"
        "functional calculus, and function-algebra density checks.",
        epilog=_COMMAND_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands listed below")
    parser.add_argument("--in", dest="input_path", required=True, help="input JSON file")
    parser.add_argument("--n", type=int, default=None, help="block size for homogeneity checks")
    parser.add_argument("--tol", type=float, default=None, help="override eq_tol/psd_slack (rank_cut scales along)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for stochastic steps (default: NHOMOG_SEED or 0)")
    parser.add_argument("--samples", type=int, default=20000, help="Monte Carlo sample budget")
    parser.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    parser.add_argument("--human", action="store_true", help="append a text summary after the JSON")
    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("NHOMOG_SEED")
        try:
            seed, source = (int(env) if env else 0), "NHOMOG_SEED"
        except ValueError as exc:
            raise SchemaError(f"NHOMOG_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise SchemaError(f"{source} must be >= 0, got {seed}")
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


def _cmd_analyze(cfg: RunConfig, payload) -> tuple[int, dict, list[str]]:
    t = jsonio.decode_tuple(payload)
    report = homogeneity_verdict(t, _require_n(cfg), cfg.tol, cfg.seed)
    code = EXIT_OK if report.is_n_homogeneous else EXIT_FALSE
    human = [
        f"{'is' if report.is_n_homogeneous else 'is NOT'} {report.n}-homogeneous: {report.reason}",
        f"nonzero block dims {list(report.block_dims)}, zero dim {report.zero_dim}",
    ]
    return code, report.to_json(), human


def _cmd_spectrum(cfg: RunConfig, payload) -> tuple[int, dict, list[str]]:
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


def _cmd_calc(cfg: RunConfig, payload) -> tuple[int, dict, list[str]]:
    from .calculus import OrbitTable, calc

    t, polynomial, values = jsonio.decode_calc_input(payload)
    if cfg.n is not None:
        report = homogeneity_verdict(t, cfg.n, cfg.tol, cfg.seed)
        if not report.is_n_homogeneous:
            return EXIT_FALSE, report.to_json(), [f"tuple is not {cfg.n}-homogeneous"]
        dec = report.decomposition
    else:
        dec = decompose(t, cfg.tol, cfg.seed)
    f = polynomial if values is None else OrbitTable.for_decomposition(dec, values)
    result = calc(f, dec, cfg.tol)
    report = {"result": jsonio.encode_matrix(result), "classes": len(dec.classes)}
    return EXIT_OK, report, [f"result norm {opnorm(result):.6g}"] if cfg.human else []


def _cmd_sw_check(cfg: RunConfig, payload) -> tuple[int, dict, list[str]]:
    from .sw_engine import closure_star_subalgebra, delta2_subspace, density_check

    points, n, gens = jsonio.decode_fn_algebra_input(payload)
    algebra = closure_star_subalgebra(gens, points=points, n=n, tol=cfg.tol)
    density = density_check(algebra, cfg.tol)
    d2 = delta2_subspace(algebra, cfg.tol)
    report = {**density.to_json(), "points": points, "n": n, "algebra_dim": algebra.basis.dim, "delta2_dim": d2.dim,
              "span_equals_delta2": algebra.basis.dim == d2.dim and d2.contains_span(algebra.basis, 1e-7)}
    code = EXIT_OK if density.dense else EXIT_FALSE
    human = [
        f"dim E = {algebra.basis.dim} of ambient {algebra.ambient_dim}; dense: {density.dense}",
        f"delta2 dim = {d2.dim}; span == delta2: {report['span_equals_delta2']}",
    ]
    return code, report, human


def _cmd_haar(cfg: RunConfig, payload) -> tuple[int, dict, list[str]]:
    from .haar import McConfig, _mc_draws, mc_radius, mc_twirl, twirl_exact

    a = jsonio.decode_haar_input(payload)
    stack = cfg.samples * a.shape[0] ** 2 * 16
    if stack > HAAR_STACK_CAP:
        raise SchemaError(f"--samples {cfg.samples} at n = {a.shape[0]} needs {stack} bytes of Haar draws, "
                          f"above the cap of {HAAR_STACK_CAP}")
    mc = McConfig(samples=cfg.samples, seed=cfg.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        exact = twirl_exact(a)
        estimate = mc_twirl(a, mc)
        deviation = opnorm(estimate - exact)
        radius = mc_radius(opnorm(a), mc.samples)
    if not np.isfinite([deviation, radius, *estimate.ravel(), *exact.ravel()]).all():
        raise NumericalFailure("haar values are not finite (overflow)")
    sample_check = _mc_draws(a.shape[0], mc)[:64]  # the stack mc_twirl just drew
    unitarity = opnorm(adj(sample_check) @ sample_check - np.eye(a.shape[0]))
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


def _cmd_nspace(cfg: RunConfig, payload) -> tuple[int, dict, list[str]]:
    from .n_space import classify_matrix_rep, ideal_set_correspondence

    space, gens, images = jsonio.decode_nspace_input(payload)
    ideal = ideal_set_correspondence(space, gens, tol=cfg.tol)
    report: dict = {
        "space": {"n": space.n, "orbits": space.orbits},
        "vanishing_set": list(ideal.vanishing_set),
        "support": list(ideal.support),
        "ideal_dim": ideal.dim,
    }
    human = [f"ideal dim {ideal.dim}; vanishing set {list(ideal.vanishing_set)}"]
    if images is not None:
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
    code, report, human = _COMMANDS[cfg.command](cfg, jsonio.load_json(cfg.input_path))
    text = jsonio.dump_report(_stamp(cfg, report))
    if cfg.human:
        text = text + "\n" + "\n".join(f"# {line}" for line in human)
    return code, text


_PARSER = build_parser()  # built once per process


def _report_sink(path: str | None, input_path: str):
    """stdout, or the --out file opened (and emptied) before the work, so
    a path that cannot be written is an input error, not a loss of the
    finished report.  An --out that names the --in file is refused before
    anything is opened, since opening it would empty the input."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        same = os.path.samefile(path, input_path)
    except OSError:  # one of them does not exist
        same = os.path.realpath(path) == os.path.realpath(input_path)
    if same:
        raise ParseError(f"--out {path} is the --in file; writing the report there would empty the input")
    try:
        return open(path, "w")
    except OSError as exc:
        raise ParseError(f"--out {path}: cannot open for writing: {exc.strerror}") from None


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = _config(args)
        with _report_sink(cfg.out, cfg.input_path) as sink:
            code, text = run(cfg)
            print(text, file=sink)
    except InputError as exc:
        print(f"nhomog: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:  # the input asks for more than the host holds, as the haar cap does
        print(f"nhomog: input error: {args.command} on this input does not fit in memory", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalFailure, HypothesisViolated) as exc:
        print(f"nhomog: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NHomogError as exc:
        print(f"nhomog: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
