"""Command line front end.

Every run writes a ``config.json`` with the fully resolved settings and
a ``result.json`` wrapping the computed result, both stamped with the
package version and written as compact JSON with shortest round-trip
floats. Runs are byte-identical for the same numpy build. main runs
numpy's bundled OpenBLAS on one thread and leaves it so
(_linalg.pin_one_blas_thread), so wherever that library is found no
output depends on OPENBLAS_NUM_THREADS; elsewhere outputs are
byte-identical at a fixed BLAS thread count. The sigma2 study draws on
one thread per CPU, and its worker count never changes its bytes. Errors
leave a single JSON object on stderr and a category exit code: 2 for
configuration or input problems, 3 for numerical failures, 4 for I/O. A
request too large for memory is a configuration error.
"""

import argparse
import functools
import json
import math
import pathlib
import sys
import warnings

from . import __version__, serialize
from ._linalg import pin_one_blas_thread
from .bias import KAPPA_STUDY_REPLICATES, SIGMA2_STUDY_REPLICATES
from .bias import check_seed, mc_kappa_study, mc_sigma2_study
from .errors import (
    DegenerateProblemError,
    DimensionError,
    DomainError,
    EvaluationError,
    FactorizationError,
    RankDeficiencyWarning,
)
from .estimators import bayes_estimate, ls_estimate, regularized_estimate
from .marginal import sweep_objective, write_sweep_csv
from .model import (
    GroundTruth,
    _as_vector,
    condition_estimate,
    default_prior,
    load_problem,
    save_problem,
    validate_problem,
)
from .problems import GeneratorKind, GeneratorSpec, generate_problem, synthesize_observations
from .selection import DEFAULT_BRACKET, DEFAULT_REL_TOL, GRID_POINTS, select_case1, select_case2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class CliConfigError(Exception):
    """Bad flag combination or unusable input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # route argparse failures through the JSON error path
        raise CliConfigError(message)


def _finite(text):
    """The type of every float flag: nan and +-inf would only fail at the output."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _fail(code, category, message):
    payload = {"version": __version__, "error": {"category": category, "message": message}}
    sys.stderr.write(serialize.dumps(payload).decode())
    return code


def _emit(out_dir, config, result):
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    serialize.dump({"version": __version__, **config}, out / "config.json")
    serialize.dump({"version": __version__, "config": config, "result": result}, out / "result.json")
    return out


def _problem_inputs(args):
    """(loaded --problem file, prior after --mu-mode, --sigma2 or else the file's sigma2)."""
    loaded = load_problem(args.problem)
    prior = loaded.prior
    if args.mu_mode == "zero":
        prior = prior.with_zero_mean()
    elif args.mu_mode == "true" and loaded.mu_assumed_zero:
        raise CliConfigError("--mu-mode true needs an explicit mu in the problem file")
    sigma2 = args.sigma2 if args.sigma2 is not None else loaded.sigma2
    return loaded, prior, sigma2


def _generator_spec(args):
    if args.kind is None or args.n is None:
        raise CliConfigError("generator problems need --kind and --n")
    return GeneratorSpec(
        GeneratorKind(args.kind), n=args.n, t=args.t, decay=args.decay, seed=args.seed
    )


def _cmd_generate(args):
    spec = _generator_spec(args)
    design, exact = generate_problem(spec)
    y, truth = synthesize_observations(design, exact, args.sigma2, seed=args.seed)
    problem = design.with_observations(y)
    prior = default_prior(design.t, mu=exact if args.mu_mode == "true" else None)
    config = {
        "command": "generate",
        **spec.to_json(),
        "sigma2": args.sigma2,
        "mu_mode": args.mu_mode,
    }
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_problem(out / "problem.json", problem, prior, sigma2=args.sigma2 if args.sigma2 > 0 else None)
    serialize.dump(
        {
            "version": __version__,
            "exact_solution": exact,
            "y_bar": truth.y_bar,
            "generator_spec": spec.to_json(),
        },
        out / "truth.json",
    )
    with warnings.catch_warnings():
        # the estimate itself reports the rank deficiency the warning announces
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        condition = condition_estimate(problem)
    _emit(
        args.out,
        config,
        {
            "problem": "problem.json",
            "truth": "truth.json",
            "n": design.n,
            "t": design.t,
            "condition_estimate": condition,
        },
    )
    return EXIT_OK


def _cmd_solve(args):
    loaded, prior, sigma2 = _problem_inputs(args)
    problem = loaded.problem
    sigma_beta2 = args.sigma_beta2 if args.sigma_beta2 is not None else loaded.sigma_beta2
    if args.method == "ls":
        estimate = ls_estimate(problem)
    elif args.method == "regularized":
        if args.kappa is None:
            raise CliConfigError("--method regularized requires --kappa")
        estimate = regularized_estimate(problem, prior.w_beta, args.kappa)
    else:
        if sigma2 is None or sigma_beta2 is None:
            raise CliConfigError(
                "--method bayes needs sigma2 and sigma_beta2, from flags or the problem file"
            )
        estimate = bayes_estimate(problem, prior, sigma2, sigma_beta2)
    report = validate_problem(problem, prior)
    config = {
        "command": "solve",
        "problem": str(args.problem),
        "method": args.method,
        "mu_mode": args.mu_mode,
        "mu_assumed_zero": prior.mu_assumed_zero,
        "kappa": args.kappa,
        "sigma2": sigma2,
        "sigma_beta2": sigma_beta2,
    }
    _emit(args.out, config, {"estimate": estimate.to_json(), "validation": report.to_json()})
    return EXIT_OK


def _selection_inputs(args):
    """(problem, prior, known sigma2 or None in case 1, config up to the bracket)
    of select-kappa and sweep."""
    loaded, prior, sigma2 = _problem_inputs(args)
    if args.case == 1:
        sigma2 = None
    elif sigma2 is None:
        raise CliConfigError("case 2 needs --sigma2 or a sigma2 entry in the problem file")
    config = {
        "command": args.command,
        "problem": str(args.problem),
        "case": args.case,
        "mu_mode": args.mu_mode,
        "mu_assumed_zero": prior.mu_assumed_zero,
        "sigma2": sigma2,
        "bracket": list(args.bracket),
    }
    return loaded.problem, prior, sigma2, config


def _cmd_select_kappa(args):
    problem, prior, sigma2, config = _selection_inputs(args)
    bracket = tuple(args.bracket)
    if sigma2 is None:
        selection = select_case1(problem, prior, bracket, args.rel_tol)
    else:
        selection = select_case2(problem, prior, sigma2, bracket, args.rel_tol)
    _emit(args.out, {**config, "rel_tol": args.rel_tol}, selection.to_json())
    return EXIT_OK


def _bias_inputs(args):
    """(design, truth, prior) from either a problem/truth pair or a generator."""
    if args.problem is not None:
        if args.truth is None:
            raise CliConfigError("bias-study with --problem also needs --truth")
        loaded = load_problem(args.problem)
        doc = serialize.load(args.truth)
        if not isinstance(doc, dict) or "exact_solution" not in doc:
            raise CliConfigError("truth file must be a JSON object with an exact_solution key")
        # the problem file's strictness: text and boolean entries are not numbers
        exact = _as_vector(doc["exact_solution"], "exact_solution", length=loaded.problem.t)
        design, w_beta = loaded.problem.design, loaded.prior.w_beta
        source = {"problem": str(args.problem), "truth": str(args.truth)}
    else:
        spec = _generator_spec(args)
        design, exact = generate_problem(spec)
        w_beta = None
        source = {"generator_spec": spec.to_json()}
    truth = GroundTruth.from_design(design, exact)
    # the study prior is centered on the truth; a problem file supplies its w_beta
    return design, truth, default_prior(design.t, mu=exact, w_beta=w_beta), source


def _cmd_bias_study(args):
    design, truth, prior, source = _bias_inputs(args)
    if not args.sigma2 > 0:
        raise CliConfigError("bias-study needs a positive --sigma2 (the true noise variance)")
    config = {
        "command": "bias-study",
        "study": args.study,
        **source,
        "sigma2": args.sigma2,
        "seed": args.seed,
    }
    if args.study == "sigma2":
        if args.kappa is None:
            raise CliConfigError("--study sigma2 requires --kappa")
        replicates = SIGMA2_STUDY_REPLICATES if args.replicates is None else args.replicates
        report = mc_sigma2_study(
            design, truth, prior, args.sigma2, args.kappa, replicates, args.seed, args.mu_mode
        )
        config.update({"kappa": args.kappa, "replicates": replicates, "mu_mode": args.mu_mode})
    else:
        replicates = KAPPA_STUDY_REPLICATES if args.replicates is None else args.replicates
        report = mc_kappa_study(
            design,
            truth,
            prior,
            args.sigma2,
            replicates=replicates,
            seed=args.seed,
            case=args.case,
            log10_bracket=tuple(args.bracket),
            rel_tol=args.rel_tol,
        )
        config.update(
            {
                "case": args.case,
                "replicates": replicates,
                "bracket": list(args.bracket),
                "rel_tol": args.rel_tol,
            }
        )
    _emit(args.out, config, report.to_json())
    return EXIT_OK


def _cmd_sweep(args):
    problem, prior, sigma2, config = _selection_inputs(args)
    rows = sweep_objective(problem, prior, args.case, sigma2, tuple(args.bracket), args.points)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out / "sweep.csv", rows)
    best = min(rows, key=lambda row: row.objective)
    _emit(
        args.out,
        {**config, "points": args.points},
        {
            "csv": "sweep.csv",
            "points": len(rows),
            "case": rows[0].case,
            "grid_argmin_kappa": best.kappa,
            "grid_min_objective": best.objective,
        },
    )
    return EXIT_OK


def _add_common_out(sub):
    sub.add_argument("--out", default=".", help="output directory (default: current directory)")


def _add_generator_flags(sub):
    sub.add_argument("--kind", choices=[k.value for k in GeneratorKind], help="problem family")
    sub.add_argument("--n", type=int, help="number of observations")
    sub.add_argument("--t", type=int, default=None, help="number of parameters (spectrum only)")
    sub.add_argument("--decay", type=_finite, default=0.0, help="singular value decay exponent")
    sub.add_argument("--seed", type=int, default=0, help="generator seed")


def _add_selection_flags(sub):
    """The problem and objective flags of select-kappa and sweep."""
    sub.add_argument("--problem", required=True)
    sub.add_argument("--case", type=int, choices=[1, 2], default=1)
    sub.add_argument("--sigma2", type=_finite, default=None, help="known noise variance (case 2)")
    sub.add_argument("--mu-mode", choices=["auto", "true", "zero"], default="auto")


def _add_bracket_flags(sub, rel_tol=True):
    sub.add_argument(
        "--bracket",
        nargs=2,
        type=_finite,
        default=list(DEFAULT_BRACKET),
        metavar=("LO", "HI"),
        help="log10 kappa bracket",
    )
    if rel_tol:
        sub.add_argument(
            "--rel-tol", type=_finite, default=DEFAULT_REL_TOL, help="relative tolerance on kappa"
        )


@functools.cache
def build_parser():
    """The one parser of the process: building it takes about 2 ms (some 50 help
    formatters, each asking for the terminal size), and parse_args keeps no
    state between calls. No handler mutates a default, such as --bracket's list."""
    parser = _Parser(prog="abicreg", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"abicreg {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a synthetic problem file with known truth")
    _add_generator_flags(gen)
    gen.add_argument("--sigma2", type=_finite, default=0.0, help="noise variance for the data draw")
    gen.add_argument(
        "--mu-mode",
        choices=["true", "zero"],
        default="true",
        help="embed the exact solution as the prior mean, or omit mu",
    )
    _add_common_out(gen)
    gen.set_defaults(handler=_cmd_generate)

    solve = subs.add_parser("solve", help="point estimates for one problem file")
    solve.add_argument("--problem", required=True, help="problem JSON file")
    solve.add_argument("--method", required=True, choices=["ls", "regularized", "bayes"])
    solve.add_argument("--kappa", type=_finite, default=None, help="regularization strength")
    solve.add_argument("--sigma2", type=_finite, default=None, help="noise variance (bayes)")
    solve.add_argument("--sigma-beta2", type=_finite, default=None, help="prior variance (bayes)")
    solve.add_argument("--mu-mode", choices=["auto", "true", "zero"], default="auto")
    _add_common_out(solve)
    solve.set_defaults(handler=_cmd_solve)

    select = subs.add_parser("select-kappa", help="minimize an ABIC objective over kappa")
    _add_selection_flags(select)
    _add_bracket_flags(select)
    _add_common_out(select)
    select.set_defaults(handler=_cmd_select_kappa)

    bias = subs.add_parser("bias-study", help="Monte Carlo study of the zero-mean bias")
    bias.add_argument("--study", choices=["sigma2", "kappa"], default="sigma2")
    bias.add_argument("--problem", default=None, help="problem JSON file (needs --truth)")
    bias.add_argument("--truth", default=None, help="truth JSON file with exact_solution")
    _add_generator_flags(bias)
    bias.add_argument("--sigma2", type=_finite, required=True, help="true noise variance")
    bias.add_argument("--kappa", type=_finite, default=None, help="fixed kappa (sigma2 study)")
    bias.add_argument("--replicates", type=int, default=None)
    bias.add_argument("--mu-mode", choices=["true", "zero"], default="zero")
    bias.add_argument("--case", type=int, choices=[1, 2], default=1, help="objective (kappa study)")
    _add_bracket_flags(bias)
    _add_common_out(bias)
    bias.set_defaults(handler=_cmd_bias_study)

    sweep = subs.add_parser("sweep", help="tabulate an objective on a log kappa grid")
    _add_selection_flags(sweep)
    sweep.add_argument("--points", type=int, default=GRID_POINTS)
    _add_bracket_flags(sweep, rel_tol=False)
    _add_common_out(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None):
    # not restored on return: a version that restored the old count raised the
    # peak RSS of the select benchmark, which calls main in one process, from
    # 93 MB to 96-101 MB (2 CPUs)
    pin_one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "seed" in vars(args):
            check_seed(args.seed)
        return args.handler(args)
    except (CliConfigError, DimensionError, DomainError) as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except json.JSONDecodeError as exc:
        return _fail(EXIT_CONFIG, "config", f"invalid JSON: {exc}")
    except MemoryError as exc:
        return _fail(EXIT_CONFIG, "config", f"the requested size does not fit in memory: {exc}")
    except (FactorizationError, DegenerateProblemError, EvaluationError) as exc:
        return _fail(EXIT_NUMERIC, "numeric", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
