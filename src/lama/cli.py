"""Command-line interface.

Subcommands map one-to-one onto the library workloads:

* ``surface``        closed-form risk over an (n, M) grid, CSV
* ``simulate``       synthetic method comparison, CSV
* ``eval``           repeated random-split evaluation on a dataset, CSV
* ``fit``            one dataset, every requested method's weights, JSON
* ``validate-rmt``   Monte-Carlo check of the random-matrix trace limits, JSON
* ``validate-thm1``  check of the weighted-average risk limit against exact
                     conditional risks over training draws, JSON

Every subcommand takes ``--out`` (default stdout); ``eval`` and ``fit`` share
``--data``, ``--response``, ``--no-standardize`` and ``--methods``, which is
only split on commas: the library judges the pieces.  ``lama COMMAND`` builds
that command's parser alone, as building all seven outlasts a small surface's
arithmetic; ``lama``, ``lama --help`` and an unknown command build them all.

Exit codes: 0 success, 1 usage error (bad flags, flag or config values the
library rejects, unreadable input such as a missing or malformed dataset or
config file, a dataset that breaks a dataset rule), 2 numerical failure
during computation (running out of memory included).  Every option's dest is
the library name of the value it sets, so a usage error names the flag behind
the rejected field; with ``simulate --config`` it keeps the config field's name.

Determinism: all science parameters are explicit flags or config entries;
the only environment control is LAMA_THREADS (worker processes for
replication loops of every harness), which never changes output bytes.
Where threadpoolctl is installed, every run pins BLAS to one thread, in the
``lama`` process itself and in each worker, so workers do not oversubscribe the cores.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import datasets as ds
from . import experiments as xp
from .models import Dataset, load_csv
from .risk_theory import InputError, PowerLawProfile, _counts, risk_surface

__all__ = ["main", "run"]

_WEIGHTINGS = {"equal": "equal", "varpen": "variance_penalized", "single": "single"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # numerical failures, so route parse errors through InputError instead.
    def error(self, message):
        raise InputError(self.prog, message)


def _parse_range(text: str) -> list[int]:
    """``a:b[:step]`` inclusive of both endpoints, or a single integer."""
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) == 2:
        a, b, step = int(parts[0]), int(parts[1]), 1
    elif len(parts) == 3:
        a, b, step = int(parts[0]), int(parts[1]), int(parts[2])
    else:
        raise ValueError(f"bad range {text!r}; expected a:b[:step]")
    if step < 1 or b < a:
        raise ValueError(f"bad range {text!r}; need a <= b and step >= 1")
    return list(range(a, b + 1, step))


def _parse_int_list(text: str) -> list[int]:
    """Comma list whose items may be single integers or a:b[:step] ranges."""
    out: list[int] = []
    for piece in text.split(","):
        out.extend(_parse_range(piece.strip()))
    return out


def _parse_float_list(text: str) -> list[float]:
    return [float(piece) for piece in text.split(",")]


def _flag_type(parse):
    """argparse ``type=`` converter: a value ``parse`` rejects is a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from None

    return convert


_INT_LIST = _flag_type(_parse_int_list)
_FLOAT_LIST = _flag_type(_parse_float_list)


def _write_out(path: str | None, emit) -> int:
    """Call ``emit(fh)`` on stdout, or on the file at ``path``; returns exit code 0."""
    if path is None or path == "-":
        emit(sys.stdout)
    else:
        with open(path, "w") as fh:
            emit(fh)
    return 0


def _write_json(path: str | None, obj) -> int:
    """``_write_out`` of ``obj`` as strict JSON: a non-finite value raises ``ValueError`` before any write."""
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    return _write_out(path, lambda fh: fh.write(text))


def _load_dataset(args) -> Dataset:
    standardize = not args.no_standardize
    if args.data in ds.available():
        return ds.load_builtin(args.data, standardize=standardize)
    if not Path(args.data).exists():
        raise InputError("data", f"no such dataset {args.data!r} (path or one of {ds.available()})")
    if args.response is None:
        raise InputError("response", "required for dataset files")
    data = load_csv(args.data, response=args.response)
    return ds.standardize_dataset(data) if standardize else data


def _profile_from(args) -> PowerLawProfile:
    if args.r2 is not None:
        return PowerLawProfile.from_r2(args.r2, args.alpha, args.p)
    return PowerLawProfile.from_snr(args.snr, args.exponent, sigma2=args.sigma2, truncate=args.truncate)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_surface(args) -> int:
    surf = risk_surface(
        args.n_values,
        args.m_values,
        _profile_from(args),
        sigma2=args.sigma2,
        weighting=_WEIGHTINGS[args.weights],
        exclude_singular=args.exclude_singular,
    )
    return _write_out(args.out, surf.to_csv)


def _cmd_simulate(args) -> int:
    merged = xp.SimulationConfig().to_dict()
    config_vals = {}
    if args.config is not None:
        with open(args.config) as fh:
            config_vals = json.load(fh)
        if not isinstance(config_vals, dict):
            raise InputError(args.config, "config must be a JSON object")
        unknown = set(config_vals) - set(merged)
        if unknown:
            raise InputError(args.config, f"unknown config field(s): {sorted(unknown)}")

    # Flag values are lists, not tuples, so that they compare equal to JSON ones.
    for key in merged:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    for key, val in config_vals.items():
        if getattr(args, key) is not None and getattr(args, key) != val:
            warnings.warn(f"{args.flags[key]} conflicts with config field {key!r}; config wins", RuntimeWarning)
        merged[key] = val
    rows = xp.run_simulation(xp.SimulationConfig(**merged))
    return _write_out(args.out, lambda fh: xp.simulation_csv(rows, fh))


def _cmd_eval(args) -> int:
    data = _load_dataset(args)
    rows = xp.evaluate_real(
        data,
        n_train=args.n_train,
        reps=args.reps,
        seed=args.seed,
        methods=args.methods,
        max_models=args.max_models,
    )
    return _write_out(args.out, lambda fh: xp.real_eval_csv(rows, fh))


def _cmd_fit(args) -> int:
    methods = xp._method_tags(args.methods)
    data = _load_dataset(args)
    n_fit = data.n if args.n_train is None else _counts(args.n_train, "n_train", 2)
    if n_fit > data.n:
        raise InputError("n_train", f"{n_fit} not in [2, {data.n}]")
    X, sizes = xp._nested_candidates(data, n_fit, args.max_models)
    Y = data.Y
    if args.n_train is not None:
        idx = xp.rng_for(args.seed, "fit-split", 0).permutation(data.n)[:n_fit]
        X, Y = X[idx], Y[idx]
    fits = xp.fit_all(Dataset(Y=Y, X=X), sizes)
    records = [xp.compute_weights(fits, method).to_record() for method in methods]
    return _write_json(args.out, records)


def _cmd_validate_rmt(args) -> int:
    theta = None if args.theta is None else np.asarray(args.theta)
    report = xp.validate_rmt(args.n, args.c, reps=args.reps, seed=args.seed, theta=theta)
    return _write_json(args.out, report)


def _cmd_validate_thm1(args) -> int:
    profile = _profile_from(args)
    theta = profile.coefficients(max(profile.truncate, max(args.sizes)))
    report = xp.validate_theorem1(args.n, args.sizes, theta, sigma2=args.sigma2, reps=args.reps,
                                  seed=args.seed, w=args.w)
    return _write_json(args.out, report)


# ---------------------------------------------------------------------------
# Parser assembly


def _add_profile_flags(sp):
    sp.add_argument("--snr", type=float, default=1.0,
                    help="signal-to-noise ratio |theta|^2/sigma^2 (default 1)")
    sp.add_argument("--decay", dest="exponent", metavar="DECAY", type=float, default=0.6,
                    help="power-law exponent: theta_j proportional to j^-decay (default 0.6)")
    sp.add_argument("--truncate", type=int, default=400,
                    help="coefficients are zero beyond this index (default 400)")
    sp.add_argument("--r2", type=float, default=None,
                    help="population R-squared; selects the R2/alpha parameterization instead of snr/decay")
    sp.add_argument("--alpha", type=float, default=0.5,
                    help="decay parameter for the R2 parameterization (default 0.5)")
    sp.add_argument("--p", type=int, default=400,
                    help="number of regressors for the R2 parameterization (default 400)")


def _split(text: str) -> list[str]:
    """A comma list's pieces, unjudged: the library that reads them judges them."""
    return text.split(",")


def _add_dataset_flags(sp):
    sp.add_argument("--data", required=True, help=f"CSV path or builtin name {ds.available()}")
    sp.add_argument("--response", default=None, help="response column (required for CSV paths)")
    sp.add_argument("--methods", type=_split, default=list(xp.QUADRATIC_METHODS),
                    help=f"comma list from {','.join(xp.ALL_METHODS)} (default {','.join(xp.QUADRATIC_METHODS)})")
    sp.add_argument("--no-standardize", action="store_true",
                    help="skip full-sample standardization of response and regressors")


def _surface_flags(sp):
    sp.add_argument("--n-range", dest="n_values", metavar="N_RANGE", type=_INT_LIST, required=True,
                    help="sample sizes, a:b[:step] or comma list, inclusive")
    sp.add_argument("--m-range", dest="m_values", metavar="M_RANGE", type=_INT_LIST, required=True,
                    help="candidate counts, a:b[:step] or comma list, inclusive")
    sp.add_argument("--weights", choices=sorted(_WEIGHTINGS), default="equal",
                    help="equal | varpen (inverse limiting variance) | single (lone k = M model: Theorem-1 diagonal)")
    sp.add_argument("--sigma2", type=float, default=1.0, help="noise variance (default 1.0)")
    sp.add_argument("--exclude-singular", action="store_true",
                    help="drop the k = n candidate from each cell instead of averaging over it")
    _add_profile_flags(sp)


def _simulate_flags(sp):
    cfg = xp.SimulationConfig()
    sp.add_argument("--config", default=None, help="JSON config; wins over flags on conflict")
    sp.add_argument("--n", dest="n_values", metavar="N", type=_INT_LIST, default=None,
                    help=f"sample sizes, comma list (default {','.join(map(str, cfg.n_values))})")
    sp.add_argument("--m", dest="m_values", metavar="M", type=_INT_LIST, default=None,
                    help="candidate counts, comma list (default: the three standard counts per n)")
    sp.add_argument("--r2", dest="r2_values", metavar="R2", type=_FLOAT_LIST, default=None,
                    help=f"population R-squared values, comma list (default {','.join(map(str, cfg.r2_values))})")
    sp.add_argument("--alpha", type=float, default=None, help=f"coefficient decay parameter (default {cfg.alpha})")
    sp.add_argument("--p", type=int, default=None, help=f"number of regressors (default {cfg.p})")
    sp.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=None,
                    help=f"replications per setting (default {cfg.replications})")
    sp.add_argument("--seed", type=int, default=None, help=f"base seed (default {cfg.seed})")
    sp.add_argument("--methods", type=_split, default=None,
                    help=f"comma list from {','.join(xp.ALL_METHODS)} (default {','.join(cfg.methods)})")
    sp.add_argument("--exclude-boundary", action="store_true", default=None,
                    help="drop the k = n candidate when the grid reaches it")
    sp.add_argument("--truncate-loss", type=float, default=None,
                    help="cap per-replication relative losses at this value (default: no cap)")


def _eval_flags(sp):
    _add_dataset_flags(sp)
    sp.add_argument("--n-train", type=int, required=True, help="training rows per split")
    sp.add_argument("--reps", type=int, default=1000, help="number of random splits (default 1000)")
    sp.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sp.add_argument("--max-models", type=int, default=None,
                    help="largest candidate size (default min(p, floor(0.9 n_train)))")


def _fit_flags(sp):
    _add_dataset_flags(sp)
    sp.add_argument("--n-train", type=int, default=None,
                    help="fit on a seeded random subsample of this size (default: all rows)")
    sp.add_argument("--seed", type=int, default=0, help="base seed for the subsample (default 0)")
    sp.add_argument("--max-models", type=int, default=None,
                    help="largest candidate size (default min(p, floor(0.9 n)))")


def _validate_rmt_flags(sp):
    sp.add_argument("--n", type=int, required=True, help="sample size")
    sp.add_argument("--c", type=float, required=True,
                    help="aspect ratio, away from 1: the design has k = round(c n) columns, the limits are at k/n")
    sp.add_argument("--reps", type=int, default=20, help="replications (default 20)")
    sp.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sp.add_argument("--theta", type=_FLOAT_LIST, default=None,
                    help="signal vector for the quadratic form, comma list (default: first basis vector)")


def _validate_thm1_flags(sp):
    sp.add_argument("--n", type=int, required=True, help="sample size")
    sp.add_argument("--sizes", type=_INT_LIST, required=True,
                    help="candidate sizes, comma list or a:b[:step]")
    sp.add_argument("--sigma2", type=float, default=1.0, help="noise variance (default 1.0)")
    sp.add_argument("--reps", type=int, default=100, help="replications (default 100)")
    sp.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sp.add_argument("--weights", dest="w", metavar="WEIGHTS", type=_FLOAT_LIST, default=None,
                    help="weight vector, comma list (default equal)")
    _add_profile_flags(sp)


# name: (help line in ``lama --help``, the function declaring its flags, the function running it)
_COMMANDS = {
    "surface": ("closed-form risk over an (n, M) grid (CSV)", _surface_flags, _cmd_surface),
    "simulate": ("synthetic method comparison (CSV)", _simulate_flags, _cmd_simulate),
    "eval": ("repeated random-split evaluation on a dataset (CSV)", _eval_flags, _cmd_eval),
    "fit": ("fit one dataset; emit every method's weights (JSON)", _fit_flags, _cmd_fit),
    "validate-rmt": ("Monte-Carlo check of the trace limits (JSON)", _validate_rmt_flags, _cmd_validate_rmt),
    "validate-thm1": ("check of the weighted-average risk limit against exact conditional risks "
                      "over training draws (JSON)", _validate_thm1_flags, _cmd_validate_thm1),
}


def _declare(sp: _Parser, name: str) -> _Parser:
    """``sp`` with command ``name``'s flags, ``--out`` and the {dest: flag} table of them."""
    help_text, add_flags, func = _COMMANDS[name]
    add_flags(sp)
    kind = "CSV" if help_text.endswith("(CSV)") else "JSON"
    sp.add_argument("--out", default=None, help=f"output {kind} path (default stdout)")
    # Each option's dest is the library name it feeds, so the table names the
    # flag behind any field the library rejects.
    sp.set_defaults(func=func, flags={a.dest: a.option_strings[0] for a in sp._actions if a.option_strings})
    return sp


def build_parser() -> _Parser:
    parser = _Parser(prog="lama", description="Model averaging over nested least-squares candidates")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    for name, (help_text, *_) in _COMMANDS.items():
        _declare(sub.add_parser(name, help=help_text), name)
    return parser


def run(argv=None) -> int:
    xp._limit_blas()
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    args = None
    try:
        # A named command's parser alone parses as build_parser's subparser would.
        parser = build_parser() if name is None else _declare(_Parser(prog=f"lama {name}"), name)
        args, extra = parser.parse_known_args(argv[1:] if name else argv, argparse.Namespace(command=name))
        if extra:  # worded as the full parser words them
            raise InputError("lama", f"unrecognized arguments: {' '.join(extra)}")
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except InputError as exc:
        # Name the flag that sets the field; with a config file the value may
        # come from either, so keep the config field's name.
        field = exc.field
        if getattr(args, "config", None) is None:
            field = getattr(args, "flags", {}).get(field, field)
        print(f"error: {field}: {exc.args[1]}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
