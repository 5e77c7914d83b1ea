"""Command-line interface.

Subcommands map one-to-one onto the library workloads:

* ``surface``        closed-form risk over an (n, M) grid, CSV
* ``simulate``       synthetic method comparison, CSV
* ``eval``           repeated random-split evaluation on a dataset, CSV
* ``fit``            one dataset, every requested method's weights, JSON
* ``validate-rmt``   Monte-Carlo check of the random-matrix trace limits, JSON
* ``validate-thm1``  check of the weighted-average risk limit against exact
                     conditional risks over training draws, JSON

Exit codes: 0 success, 1 usage error (bad flags, flag or config values the
library rejects, unreadable input such as a missing or malformed dataset or
config file), 2 numerical failure during computation (running out of memory
included).  Every option's dest is
the library name of the value it sets, so a usage error names the flag behind
the rejected field; with ``simulate --config`` it keeps the config field's name.

Determinism: all science parameters are explicit flags or config entries;
the only environment control is LAMA_THREADS (worker processes for
replication loops of every harness), which never changes output bytes.
Where threadpoolctl is installed, BLAS pools in workers are pinned to one
thread so that workers do not oversubscribe the cores.
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


def _parse_methods(text: str) -> list[str]:
    methods = [piece.strip().lower() for piece in text.split(",") if piece.strip()]
    if not methods:
        raise ValueError("need at least one method")
    return methods


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
_METHODS = _flag_type(_parse_methods)


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
    name = args.data
    standardize = not args.no_standardize
    if name in ds.available():
        return ds.load_builtin(name, standardize=standardize)
    path = Path(name)
    if not path.exists():
        raise InputError("data", f"no such dataset {name!r} (path or one of {ds.available()})")
    if args.response is None:
        raise InputError("response", "required for dataset files")
    data = load_csv(path, response=args.response)
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
    records = [xp.compute_weights(fits, method).to_record() for method in args.methods]
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


def build_parser() -> _Parser:
    parser = _Parser(prog="lama", description="Model averaging over nested least-squares candidates")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    sp = sub.add_parser("surface", help="closed-form risk over an (n, M) grid (CSV)")
    sp.add_argument("--n-range", dest="n_values", metavar="N_RANGE", type=_INT_LIST, required=True,
                    help="sample sizes, a:b[:step] or comma list, inclusive")
    sp.add_argument("--m-range", dest="m_values", metavar="M_RANGE", type=_INT_LIST, required=True,
                    help="candidate counts, a:b[:step] or comma list, inclusive")
    sp.add_argument("--weights", choices=sorted(_WEIGHTINGS), default="equal",
                    help="equal | varpen (inverse limiting variance) | single (lone k = M model: Theorem-1 diagonal)")
    sp.add_argument("--sigma2", type=float, default=1.0, help="noise variance (default 1.0)")
    sp.add_argument("--exclude-singular", action="store_true",
                    help="drop the k = n candidate from each cell instead of averaging over it")
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_profile_flags(sp)
    sp.set_defaults(func=_cmd_surface)

    sp = sub.add_parser("simulate",
                        help="synthetic method comparison (CSV)")
    sp.add_argument("--config", default=None, help="JSON config; wins over flags on conflict")
    sp.add_argument("--n", dest="n_values", metavar="N", type=_INT_LIST, default=None,
                    help="sample sizes, comma list (default 25,50,150,300)")
    sp.add_argument("--m", dest="m_values", metavar="M", type=_INT_LIST, default=None,
                    help="candidate counts, comma list (default: the three standard counts per n)")
    sp.add_argument("--r2", dest="r2_values", metavar="R2", type=_FLOAT_LIST, default=None,
                    help="population R-squared values, comma list (default 0.5)")
    sp.add_argument("--alpha", type=float, default=None, help="coefficient decay parameter (default 0.5)")
    sp.add_argument("--p", type=int, default=None, help="number of regressors (default 1000)")
    sp.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=None,
                    help="replications per setting (default 200)")
    sp.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    sp.add_argument("--methods", type=_METHODS, default=None,
                    help=f"comma list from {','.join(xp.ALL_METHODS)} (default mma,jma,lama,saic,sbic)")
    sp.add_argument("--exclude-boundary", action="store_true", default=None,
                    help="drop the k = n candidate when the grid reaches it")
    sp.add_argument("--truncate-loss", type=float, default=None,
                    help="cap per-replication relative losses at this value (default: no cap)")
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("eval",
                        help="repeated random-split evaluation on a dataset (CSV)")
    sp.add_argument("--data", required=True, help=f"CSV path or builtin name {ds.available()}")
    sp.add_argument("--response", default=None, help="response column (required for CSV paths)")
    sp.add_argument("--n-train", type=int, required=True, help="training rows per split")
    sp.add_argument("--reps", type=int, default=1000, help="number of random splits (default 1000)")
    sp.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sp.add_argument("--methods", type=_METHODS, default="mma,jma,lama",
                    help="comma list (default mma,jma,lama)")
    sp.add_argument("--max-models", type=int, default=None,
                    help="largest candidate size (default min(p, floor(0.9 n_train)))")
    sp.add_argument("--no-standardize", action="store_true",
                    help="skip full-sample standardization of response and regressors")
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("fit",
                        help="fit one dataset; emit every method's weights (JSON)")
    sp.add_argument("--data", required=True, help=f"CSV path or builtin name {ds.available()}")
    sp.add_argument("--response", default=None, help="response column (required for CSV paths)")
    sp.add_argument("--n-train", type=int, default=None,
                    help="fit on a seeded random subsample of this size (default: all rows)")
    sp.add_argument("--seed", type=int, default=0, help="base seed for the subsample (default 0)")
    sp.add_argument("--methods", type=_METHODS, default="mma,jma,lama",
                    help="comma list (default mma,jma,lama)")
    sp.add_argument("--max-models", type=int, default=None,
                    help="largest candidate size (default min(p, floor(0.9 n)))")
    sp.add_argument("--no-standardize", action="store_true",
                    help="skip full-sample standardization of response and regressors")
    sp.add_argument("--out", default=None, help="output JSON path (default stdout)")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("validate-rmt",
                        help="Monte-Carlo check of the trace limits (JSON)")
    sp.add_argument("--n", type=int, required=True, help="sample size")
    sp.add_argument("--c", type=float, required=True, help="aspect ratio k/n, away from 1")
    sp.add_argument("--reps", type=int, default=20, help="replications (default 20)")
    sp.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sp.add_argument("--theta", type=_FLOAT_LIST, default=None,
                    help="signal vector for the quadratic form, comma list (default: first basis vector)")
    sp.add_argument("--out", default=None, help="output JSON path (default stdout)")
    sp.set_defaults(func=_cmd_validate_rmt)

    sp = sub.add_parser("validate-thm1",
                        help="check of the weighted-average risk limit against exact conditional risks "
                             "over training draws (JSON)")
    sp.add_argument("--n", type=int, required=True, help="sample size")
    sp.add_argument("--sizes", type=_INT_LIST, required=True,
                    help="candidate sizes, comma list or a:b[:step]")
    sp.add_argument("--sigma2", type=float, default=1.0, help="noise variance (default 1.0)")
    sp.add_argument("--reps", type=int, default=100, help="replications (default 100)")
    sp.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sp.add_argument("--weights", dest="w", metavar="WEIGHTS", type=_FLOAT_LIST, default=None,
                    help="weight vector, comma list (default equal)")
    sp.add_argument("--out", default=None, help="output JSON path (default stdout)")
    _add_profile_flags(sp)
    sp.set_defaults(func=_cmd_validate_thm1)

    # Each option's dest is the library name it feeds, so one {dest: flag} table per
    # subcommand names the flag behind any field the library rejects.
    for sp in sub.choices.values():
        sp.set_defaults(flags={a.dest: a.option_strings[0] for a in sp._actions if a.option_strings})
    return parser


def run(argv=None) -> int:
    xp._limit_blas()
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
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
