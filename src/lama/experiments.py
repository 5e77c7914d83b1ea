"""Synthetic and real-data experiment harnesses with keyed, replayable RNG.

Randomness never flows through shared generator state: every replication
derives its own generator from (base seed, setting keys, replication index,
stream tag), so any single replication can be reproduced in isolation and
results are identical at any worker count.  Every harness maps one module-level
function, per replication or (``evaluate_real``) per fixed-size chunk of splits,
whose quadratic weights a chunk chooses as one stack, through ``_pmap``, which
reads the worker count from ``LAMA_THREADS``; aggregation walks replications in
index order, which keeps output bytes stable.
"""

from __future__ import annotations

import importlib.util
import math
import os
import types
import typing
import warnings
import zlib
from dataclasses import dataclass, fields

import numpy as np

from . import criteria as crit, qp
from .models import Dataset, ModelFits, _candidate_sizes, _fit_stack, default_model_counts, fit_all, order_by_cp
from .qp import solve_simplex_qp
from .risk_theory import (_BLOCK_ENTRIES, InputError, PowerLawProfile, _counts, _exact, _theorem1_inputs,
                          _weighted_borders, above_boundary_variance, below_boundary_variance)

__all__ = [
    "rng_for",
    "worker_count",
    "WeightChoice",
    "compute_weights",
    "SimulationConfig",
    "generate_data",
    "relative_losses",
    "run_simulation",
    "simulation_csv",
    "evaluate_real",
    "real_eval_csv",
    "validate_rmt",
    "validate_theorem1",
    "QUADRATIC_METHODS",
    "ALL_METHODS",
]

QUADRATIC_METHODS = ("mma", "jma", "lama")
ALL_METHODS = QUADRATIC_METHODS + ("aic", "bic", "saic", "sbic", "uniform")


def _method_tags(methods) -> tuple[str, ...]:
    """Stripped, lower-cased, nonempty method tags; rejects a bare string, no tag and any tag not in ALL_METHODS."""
    if isinstance(methods, str):
        raise InputError("methods", f"expected a list of method names, got the string {methods!r}")
    tags = tuple(tag for tag in (str(m).strip().lower() for m in methods) if tag)
    if not tags:
        raise InputError("methods", "need at least one method")
    unknown = set(tags) - set(ALL_METHODS)
    if unknown:
        raise InputError("methods", f"unknown methods {sorted(unknown)} (choose from {ALL_METHODS})")
    return tags


def _stable_key(key) -> int:
    """Map one key of any basic type to a stable nonnegative integer."""
    if isinstance(key, (bool, np.bool_)):
        return int(key)
    if isinstance(key, (int, np.integer)) and 0 <= int(key) < 2**32:
        return int(key)
    return zlib.crc32(repr(key).encode())


def rng_for(base_seed: int, *keys) -> np.random.Generator:
    """Deterministic generator keyed by (base seed, arbitrary key tuple); the seed is an integer >= 0."""
    ss = np.random.SeedSequence(_counts(base_seed, "seed", 0), spawn_key=tuple(_stable_key(k) for k in keys))
    return np.random.default_rng(ss)


def worker_count() -> int:
    """Worker processes for replication loops, from the LAMA_THREADS variable."""
    raw = os.environ.get("LAMA_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        warnings.warn(f"ignoring non-integer LAMA_THREADS={raw!r}", RuntimeWarning)
        return 1


def _limit_blas():
    # Pin BLAS to one thread so results do not depend on pool size.
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return
    threadpool_limits(limits=1)


def _pmap(fn, items):
    """Order-preserving map, across ``worker_count()`` worker processes when that exceeds 1."""
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    pins = {os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    if pins != {"1"} and importlib.util.find_spec("threadpoolctl") is None:  # the default filters show this once
        warnings.warn("threadpoolctl is missing, so the workers' BLAS is not pinned; set OPENBLAS_NUM_THREADS=1 "
                      "(or your BLAS's equivalent) lest they oversubscribe the cores", RuntimeWarning)
    chunk = max(1, len(items) // (workers * 4))
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, which one worker never needs

    # The fork start method launches every worker on the first submit.
    with ProcessPoolExecutor(max_workers=min(workers, len(items)), initializer=_limit_blas) as ex:
        return list(ex.map(fn, items, chunksize=chunk))


def _replicate(outcomes: list) -> tuple[list, int, int]:
    """(kept values in order, dropped count, summed redraws) of the replications' ``outcomes``.

    Each outcome is (value, redraws, reason), the reason None if the
    replication is kept, else "degenerate" or a failed fit's message.
    """
    kept = [value for value, _, reason in outcomes if reason is None]
    return kept, len(outcomes) - len(kept), sum(redraws for _, redraws, _ in outcomes)


# ---------------------------------------------------------------------------
# Weight choice dispatch


@dataclass(frozen=True, eq=False)
class WeightChoice:
    """One method's chosen weights on the full candidate list.

    Candidates a method cannot score carry weight 0 and appear in ``excluded``
    (see ``compute_weights``).  The quadratic methods keep their solve's ``status``,
    ``iterations`` and ``kkt_residual``; ``to_record`` leaves them out.  Compares by identity.
    """

    method: str
    weights: np.ndarray
    criterion_value: float | None = None
    sigma2_hat: float | None = None
    xi: float | None = None
    excluded: tuple[int, ...] = ()
    status: str | None = None
    iterations: int | None = None
    kkt_residual: float | None = None

    def to_record(self) -> dict:
        return {
            "method": self.method,
            "weights": [float(x) for x in self.weights],
            "criterion_value": None if self.criterion_value is None else float(self.criterion_value),
            "sigma_hat": None if self.sigma2_hat is None else float(self.sigma2_hat),
            "xi": None if self.xi is None else float(self.xi),
        }


# The candidates each method can score: (criterion name, what every dropped candidate does, keep mask).
_KEEP = {"jma": ("leave-one-out", "interpolates", lambda fits: ~crit.loo_flagged(fits)),
         "lama": ("large-model", "has k >= n (boundary)", lambda fits: fits.sizes < fits.n),
         **{kind: (kind.upper(), "is interpolating (RSS = 0)", lambda fits: fits.rss > 0.0)
            for kind in ("aic", "bic", "saic", "sbic")}}


def compute_weights(fits, method: str) -> WeightChoice:
    """Chosen weights for one method tag (see ALL_METHODS).

    Each candidate that a ``_KEEP`` rule drops gets weight 0 and is named in ``excluded`` and in a
    warning attributed to the caller; a method that keeps no candidate raises ``ValueError``."""
    if method not in ALL_METHODS:  # a canonical tag needs no parsing
        (method,) = _method_tags([method])
    if method == "uniform":
        return WeightChoice(method, np.full(fits.M, 1.0 / fits.M))
    s2 = crit.sigma_hat(fits) if method in {"mma", "lama"} else None
    w, report, xi_val, dropped, scale = _weigh(fits, method, s2, solve_simplex_qp)
    if report is None:
        return WeightChoice(method, w, excluded=dropped)
    return WeightChoice(method, w, report.objective / scale, s2, xi_val, dropped, report.status,
                        report.iterations, report.kkt_residual)


def _weigh(fits, method: str, s2, solve):
    """(weights on every candidate, report or None, xi or None, dropped indices, criterion scale) of a method
    but uniform, given sigma_hat ``s2`` and ``solve``; for mma and lama ``fits`` may stack, one s2 per fit."""
    sub, dropped, xi_val, scale = fits, (), None, 1
    if method in _KEEP:
        name, why, rule = _KEEP[method]
        keep = rule(fits)
        dropped = tuple((~keep).nonzero()[0].tolist())
        if dropped:
            warnings.warn(f"{name} criterion: excluding candidate(s) {list(dropped)}; each {why}",
                          RuntimeWarning, stacklevel=3)
            if len(dropped) == fits.M:
                raise ValueError(f"every candidate {why}; {name} criterion undefined")
            sub = fits.subset(keep)
    if method not in QUADRATIC_METHODS:  # an information criterion
        kept, report = crit.info_criterion_weights(sub, method), None
    else:
        if method == "mma":
            program = crit.mma_program(fits, s2)
        elif method == "jma":
            program = crit.jma_program(sub)
        else:
            g, h = crit.lama_vectors(sub, s2)
            xi_val = crit.xi(h, g)  # a ratio of ratios: the diagonals h/n and g/n give the same value
            # the program is on the n-scale; report the per-observation criterion
            program, scale = crit.lama_program(g, h, xi_val), sub.n
        report = solve(program.A, program.b)
        kept = report.weights
    w = kept
    if dropped:  # the dropped candidates keep weight 0
        w = np.zeros(fits.rss.shape)
        w[..., keep] = kept
    return w, report, xi_val, dropped, scale


# ---------------------------------------------------------------------------
# Synthetic experiments


@dataclass(frozen=True)
class SimulationConfig:
    """Synthetic design: standard-normal regressors behind an intercept,
    coefficients theta_j = g sqrt(2 alpha) j^(-alpha-1/2) with g set by the
    population R-squared, unit noise."""

    n_values: tuple[int, ...] = (25, 50, 150, 300)
    r2_values: tuple[float, ...] = (0.5,)
    alpha: float = 0.5
    p: int = 1000
    m_values: tuple[int, ...] | None = None  # None: the three default counts per n
    replications: int = 200
    seed: int = 0
    methods: tuple[str, ...] = ("mma", "jma", "lama", "saic", "sbic")
    exclude_boundary: bool = False  # drop the k = n candidate if the grid reaches it
    truncate_loss: float | None = None  # cap per-replication relative losses

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _conform(f.name, getattr(self, f.name), _CONFIG_TYPES[f.name]))
        object.__setattr__(self, "methods", _method_tags(self.methods))
        if not self.n_values or min(self.n_values) < 4:
            raise InputError("n_values", "need sample sizes of at least 4")
        if not self.r2_values:
            raise InputError("r2_values", "need at least one R-squared value")
        if any(not 0.0 < r < 1.0 for r in self.r2_values):
            raise InputError("r2_values", "R-squared values must lie in (0, 1)")
        if self.m_values is not None and (not self.m_values or min(self.m_values) < 1):
            raise InputError("m_values", "need candidate counts of at least 1")
        if self.replications < 1:
            raise InputError("replications", "need at least one replication")
        if self.alpha <= 0.0:
            raise InputError("alpha", "must be positive")
        if self.truncate_loss is not None and not self.truncate_loss > 0.0:
            raise InputError("truncate_loss", f"must be a positive cap, got {self.truncate_loss}")
        m_max = max(self.m_values) if self.m_values else max(default_model_counts(max(self.n_values)))
        if self.p < m_max:
            raise InputError("p", f"{self.p} smaller than the largest candidate count {m_max}")

    def to_dict(self) -> dict:
        """Every field as a plain JSON value (tuples become lists)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


_CONFIG_TYPES = typing.get_type_hints(SimulationConfig)


def _conform(field: str, value, hint):
    """``value`` as the field type ``hint`` (lists become tuples), or InputError naming the field."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    kinds = typing.get_args(hint) if union else (hint,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    many = typing.get_origin(kind) is tuple
    item = typing.get_args(kind)[0] if many else kind
    try:
        if many and not isinstance(value, str):
            return tuple(_exact(item, v) for v in value)
        if kind is bool and isinstance(value, (bool, np.bool_)) or kind in (int, float):
            return _exact(kind, value)
    except (TypeError, ValueError, OverflowError):
        pass
    want = (f"list of {item.__name__}" if many else kind.__name__) + (" or null" if union else "")
    raise InputError(field, f"expected {want}, got {value!r}")


def _draw(rng: np.random.Generator, rows: int, theta: np.ndarray, m: int, intercept: bool, sigma: float):
    """(X, Y, mu) for ``rows`` Gaussian rows, drawing only the first m columns.

    X is a column of ones, if ``intercept`` is set, then standard normals, and
    Y = mu + sigma * noise.  Under the identity covariance the other columns
    reach the mean only as X_tail theta_tail ~ N(0, |theta_tail|^2) per row:
    ``mu`` adds |theta_tail| times one normal per row, drawn after the
    ``rows`` noise normals, so at m = len(theta) the arrays are the full draw.
    """
    X = np.empty((rows, m))
    X[:, :intercept] = 1.0  # a bool slices as 0 or 1
    X[:, intercept:] = rng.standard_normal((rows, m - intercept))
    noise = rng.standard_normal(rows)
    mu = X @ theta[:m] + float(np.linalg.norm(theta[m:])) * rng.standard_normal(rows)
    return X, mu + sigma * noise, mu


def generate_data(cfg: SimulationConfig, r2: float, rep: int, n: int, m: int):
    """One replication's training draw at sample size n, candidate count m.

    Returns (train Dataset, theta, mu), theta holding all p coefficients and
    mu the training rows' mean.  The design comes from ``_draw`` with an
    intercept and unit noise, keyed by every setting coordinate (n, M, R2,
    rep), so each cell is reproducible on its own.  No test rows are drawn:
    ``_risk`` gives a fit's out-of-sample risk exactly.
    """
    n, m, rep = _counts(n, "n"), _counts(m, "m"), _counts(rep, "rep", 0)
    if m > cfg.p:
        raise InputError("m", f"{m} not in [1, {cfg.p}]")
    theta = PowerLawProfile.from_r2(r2, cfg.alpha, cfg.p).coefficients(cfg.p)
    X, Y, mu = _draw(rng_for(cfg.seed, "train", n, m, float(r2), rep), n, theta, m, True, 1.0)
    return Dataset(Y=Y, X=X, has_intercept=True), theta, mu


def _risk(beta: np.ndarray, theta: np.ndarray):
    """Exact out-of-sample risk of the coefficients ``beta`` on the leading entries of ``theta``.

    A new row x of either synthetic design has E[x x'] = I, the intercept's
    constant 1 included, so x'beta misses the mean x'theta by
    |beta - theta[:k]|^2 + |theta[k:]|^2 in expectation, k = len(beta): the
    conditional risk whose limit Theorem 1 gives.  A matrix ``beta`` holds
    one coefficient vector per column and gets one risk per column.
    """
    k = beta.shape[0]
    return np.sum((beta.T - theta[:k]) ** 2, axis=-1) + float(theta[k:] @ theta[k:])


def relative_losses(weights: dict[str, np.ndarray], pred_train: np.ndarray, mu_train: np.ndarray,
                    coefs: np.ndarray, theta: np.ndarray):
    """Per-method squared losses relative to the best single candidate.

    Candidate q has fitted values ``pred_train[:, q]`` and coefficients
    ``coefs[:, q]``; a method averages them with its ``weights``.  In sample,
    a loss is the squared distance of the fitted values from ``mu_train``;
    out of sample, it is the exact risk ``_risk`` of the coefficients under
    ``theta``.  Returns (rows, excluded) where rows maps method ->
    (relative in-sample loss, relative out-of-sample loss).  When a
    candidate matches the true mean exactly the denominators degenerate and
    the replication is flagged for exclusion instead of producing a
    division by zero.
    """
    den_in = float(np.min(np.sum((pred_train - mu_train[:, None]) ** 2, axis=0)))
    den_out = float(np.min(_risk(coefs, theta)))
    if den_in <= 1e-12 or den_out <= 1e-12:
        return {}, True
    rows = {}
    for method, w in weights.items():
        num_in = float(np.sum((pred_train @ w - mu_train) ** 2))
        rows[method] = (num_in / den_in, float(_risk(coefs @ w, theta)) / den_out)
    return rows, False


def _fit_and_weigh(fit, methods, chosen=None):
    """The ModelFits that ``fit()`` returns, and each method's weights on them (``chosen``'s, where given).

    Returns (ModelFits, {method: WeightChoice}, None), or (None, None,
    reason) when the fit or a weight choice raises.  Runtime warnings
    (``compute_weights``'s excluded candidates, for one) are silenced, as
    the harnesses run many replications.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fits = fit()
            return fits, {m: (chosen or {}).get(m) or compute_weights(fits, m) for m in methods}, None
    except (ValueError, np.linalg.LinAlgError) as exc:
        return None, None, str(exc)


# jma's lockstep solve pads each program's factor to M(n + 1) + M^2 entries: it beats one solve per fit
# only on stacks of at least this many programs whose factors hold at most this many entries.
_JMA_STACK_MIN, _JMA_FACTOR_ENTRIES = 8, 2048


def _weigh_stack(fits: list, methods) -> dict[str, list]:
    """``compute_weights``'s choice per fit for the quadratic methods in ``methods``, on fits of one n and sizes:
    sigma_hat once per fit, and the programs, their checks, xi, the jma solves and the certificates in one pass
    over the stacked fits.  jma stacks the fits whose leave-one-out rule drops nothing and gives each other fit
    None, for ``compute_weights`` to weigh alone; a program whose face fails the pivot test leaves the stack for
    the one-program solve.  A method whose stack raises, or jma where the constants above rule a stack out, is
    left out, so that each fit weighs it alone and only the fits that raise fail."""
    chosen, methods = {}, [m for m in QUADRATIC_METHODS if m in methods]
    if not (fits and methods):
        return chosen
    stack = ModelFits(fits[0].n, fits[0].sizes, *(np.array([getattr(f, a.name) for f in fits])
                                                  for a in fields(ModelFits)[2:]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        s2 = crit.sigma_hat(stack)
        for m in methods:
            keep = _KEEP[m][2](stack).all(-1) if m == "jma" else np.ones(len(fits), dtype=bool)
            if m == "jma" and (keep.sum() < _JMA_STACK_MIN or stack.M * (stack.n + 1 + stack.M) > _JMA_FACTOR_ENTRIES):
                continue
            sub = stack if keep.all() else ModelFits(stack.n, stack.sizes, *(getattr(stack, a.name)[keep]
                                                                             for a in fields(ModelFits)[2:]))
            try:  # qp's own name: no caller of one solve expects a report that lists one entry per fit
                w, report, xi_val, dropped, scale = _weigh(sub, m, s2, qp.solve_simplex_qp)  # jma reads no s2
            except ValueError:
                continue
            made = (WeightChoice(m, *row[:4], dropped, *row[4:]) for row in zip(
                w, [value / scale for value in report.objective], [None] * len(w) if m == "jma" else s2,
                xi_val if m == "lama" else [None] * len(w), report.status, report.iterations, report.kkt_residual))
            chosen[m] = [next(made) if kept else None for kept in keep]
    return chosen


def _mean_var(values) -> tuple[float, float]:
    """Mean and ddof-1 variance of the surviving values: nan for both when
    none survive, variance 0 for a single one."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return math.nan, math.nan
    return float(np.mean(vals)), (float(np.var(vals, ddof=1)) if vals.size > 1 else 0.0)


def _sim_rep(args):
    cfg, n, m, r2, rep = args
    train, theta, mu = generate_data(cfg, r2, rep, n, m)
    sizes = np.arange(1, m + 1)
    if cfg.exclude_boundary:
        sizes = sizes[sizes != n]
    fits, choices, failed = _fit_and_weigh(lambda: fit_all(train, sizes), cfg.methods)
    if failed is not None:
        return None, 0, failed
    rows, degenerate = relative_losses(
        {k: c.weights for k, c in choices.items()}, fits.predict(train.X), mu, fits.coefs, theta
    )
    if degenerate:
        return None, 0, "degenerate"
    if cfg.truncate_loss is not None:
        cap = float(cfg.truncate_loss)
        rows = {k: (min(a, cap), min(b, cap)) for k, (a, b) in rows.items()}
    return rows, 0, None


def run_simulation(cfg: SimulationConfig) -> list[dict]:
    """Mean relative losses per (method, n, M, R2) over the replications.

    Rows come back in a canonical order: n, then M, then R2 as configured,
    then methods as configured.  Failed or degenerate replications are
    dropped from the averages and counted in ``excluded_reps``.  The
    replications run in ``LAMA_THREADS`` worker processes, with the same
    result at any count.
    """
    rows: list[dict] = []
    for n in cfg.n_values:
        for m in cfg.m_values if cfg.m_values is not None else default_model_counts(n):
            for r2 in cfg.r2_values:
                tasks = [(cfg, n, m, r2, rep) for rep in range(cfg.replications)]
                kept, dropped, _ = _replicate(_pmap(_sim_rep, tasks))
                for method in cfg.methods:
                    mean_in, _ = _mean_var([loss[method][0] for loss in kept])
                    mean_out, var_out = _mean_var([loss[method][1] for loss in kept])
                    rows.append({"method": method, "n": n, "M": m, "R2": float(r2),
                                 "rel_loss_in_mean": mean_in, "rel_loss_out_mean": mean_out,
                                 "rel_loss_out_var": var_out, "excluded_reps": dropped})
    return rows


def simulation_csv(rows: list[dict], fh) -> None:
    fh.write("method,n,M,R2,rel_loss_in_mean,rel_loss_out_mean,rel_loss_out_var,excluded_reps\n")
    for r in rows:
        fh.write(
            f"{r['method']},{r['n']},{r['M']},{r['R2']!r},{r['rel_loss_in_mean']!r},"
            f"{r['rel_loss_out_mean']!r},{r['rel_loss_out_var']!r},{r['excluded_reps']}\n"
        )


# ---------------------------------------------------------------------------
# Real-data repeated splits


def _nested_candidates(data: Dataset, n_fit: int, max_models: int | None = None):
    """Regressors in Cp order on the full data, and the nested prefix sizes k = 1..M.

    M = min(p, floor(0.9 n_fit)) for fits on ``n_fit`` rows, unless
    ``max_models`` overrides it.  Returns (X with its columns in that order,
    the sizes).
    """
    M = min(data.p, math.floor(0.9 * n_fit)) if max_models is None else _counts(max_models, "max_models")
    if M > data.p:
        raise InputError("max_models", f"{M} not in [1, {data.p}]")
    return data.X[:, order_by_cp(data)], np.arange(1, M + 1)


_CHUNK_SPLITS = 64  # splits per chunk, fewer where their stacked designs pass _BLOCK_ENTRIES entries


def _real_split(rng, Y, n_train: int):
    """(permuted row indices, redraws) of one split: indices None if every draw's training response is constant."""
    for redraws in range(100):
        idx = rng.permutation(Y.shape[0])
        if np.ptp(Y[idx[:n_train]]) > 0.0:
            return idx, redraws
    return None, redraws


def _real_splits(args):
    """(test errors by method, redraws, reason) of each split in a chunk, in order: one stacked QR fits
    the chunk's designs below the boundary (``_fit_stack``), and the rest take ``fit_all``; mma, jma and
    lama weigh the chunk's fits as one stack each (``_weigh_stack``, which says which jma fits weigh alone),
    and the other methods each fit alone; no program's bits depend on its stack-mates."""
    (X, Y, sizes, n_train, methods, seed, reps) = args
    splits = [_real_split(rng_for(seed, "real-split", n_train, rep), Y, n_train) for rep in reps]
    trains = np.array([idx[:n_train] for idx, _ in splits if idx is not None], dtype=np.int64).reshape(-1, n_train)
    stacked = iter(_fit_stack(X[:, : sizes[-1]][trains], Y[trains], sizes) if sizes[-1] <= n_train else [])
    fitted = [(None, None, "degenerate") if idx is None else _fit_and_weigh(  # a ModelFits is never falsy
        lambda: next(stacked, None) or fit_all(Dataset(Y=Y[idx[:n_train]], X=X[idx[:n_train]]), sizes), ())
        for idx, _ in splits]
    chosen = _weigh_stack([fits for fits, _, _ in fitted if fits], methods)
    rows, outcomes = iter([dict(zip(chosen, row)) for row in zip(*chosen.values())]), []
    for (idx, redraws), (fits, _, failed) in zip(splits, fitted):
        if fits is not None:
            fits, choices, failed = _fit_and_weigh(lambda: fits, methods, next(rows, None))
        if failed is not None:
            outcomes.append((None, redraws, failed))
            continue
        te = idx[n_train:]
        pred_te = fits.predict(X[te])
        errs = {k: float(((pred_te @ c.weights - Y[te]) ** 2).sum()) / te.size for k, c in choices.items()}
        outcomes.append((errs, redraws, None))
    return outcomes


def evaluate_real(
    data: Dataset,
    n_train: int,
    reps: int,
    seed: int,
    methods=QUADRATIC_METHODS,
    max_models: int | None = None,
) -> list[dict]:
    """Repeated random-split evaluation on one dataset.

    The regressors are put in forward-selection order once, on the full
    data, before any splitting; candidates are the nested prefixes
    k = 1..M with M = min(p, floor(0.9 n_train)) unless ``max_models``
    overrides it.  Each split trains every method and scores squared test
    error normalized by the test-set size.  A constant training response is
    redrawn, at most 99 times, and ``redraws`` counts every split's redraws;
    a split left constant, or whose fit fails, is dropped.  Each split has
    its own keyed stream; chunks of up to ``_CHUNK_SPLITS`` splits run in
    ``LAMA_THREADS`` worker processes, with the same result at any count.
    """
    N, n_train = data.n, _counts(n_train, "n_train", 2)
    if n_train >= N:
        raise InputError("n_train", f"{n_train} not in [2, {N - 1}]")
    reps = _counts(reps, "reps")
    methods = _method_tags(methods)
    X, sizes = _nested_candidates(data, n_train, max_models)

    step = max(1, min(_CHUNK_SPLITS, _BLOCK_ENTRIES // (n_train * int(sizes[-1]))))
    tasks = [(X, data.Y, sizes, n_train, methods, seed, range(a, min(a + step, reps))) for a in range(0, reps, step)]
    kept, dropped, redraws = _replicate([one for chunk in _pmap(_real_splits, tasks) for one in chunk])
    rows = []
    for method in methods:
        mean, var = _mean_var([errors[method] for errors in kept])
        rows.append({"method": method, "n_train": n_train, "test_err_mean": mean, "test_err_var": var,
                     "reps": len(kept), "excluded": dropped, "redraws": redraws})
    return rows


def real_eval_csv(rows: list[dict], fh) -> None:
    fh.write("method,n_train,test_err_mean,test_err_var,reps\n")
    for r in rows:
        fh.write(
            f"{r['method']},{r['n_train']},{r['test_err_mean']!r},{r['test_err_var']!r},{r['reps']}\n"
        )


# ---------------------------------------------------------------------------
# Monte-Carlo validation of the closed-form limits


def _compare(empirical: float, theoretical: float) -> dict:
    """Both values, and their distance relative to the theory, or absolute where the theory is 0."""
    rel_error = abs(empirical - theoretical) / (theoretical if theoretical > 0 else 1.0)
    return {"empirical": empirical, "theoretical": theoretical, "rel_error": rel_error}


def _rmt_rep(args):
    # One design, redrawn while singular: (trace, projected signal form or None below the boundary).
    n, c, k, theta, seed, rep = args
    rng = rng_for(seed, "rmt", n, float(c), rep)
    for redraws in range(20):
        X = _draw(rng, n, np.zeros(k), k, False, 0.0)[0]
        try:
            if k < n:
                return (float(np.trace(np.linalg.inv(X.T @ X))), None), redraws, None
            Ginv = np.linalg.inv(X @ X.T)
            u = X @ theta
            return (float(np.trace(Ginv)), float(u @ Ginv @ u)), redraws, None
        except np.linalg.LinAlgError:
            pass
    raise np.linalg.LinAlgError("could not draw a nonsingular design in 20 tries")


def validate_rmt(n: int, c: float, reps: int, seed: int, theta: np.ndarray | None = None) -> dict:
    """Empirical random-matrix limits against their closed forms.

    Each design is a ``_draw`` of k = round(c n) standard-normal columns,
    singular ones redrawn and counted, and the limits take c = k/n.  Below
    the boundary: tr((X'X)^-1) against c/(1-c).  Above: tr((X'X)^+) against
    1/(c-1) and the projected signal quadratic form against |theta|^2 / c.
    ``theta``, when given, must be finite and have length k on either side
    of the boundary; it defaults to the first basis vector and is used only
    above it.
    """
    n, reps = _counts(n, "n", 4), _counts(reps, "reps")
    if not np.isfinite(c):
        raise InputError("c", f"must be finite, got {c}")
    k = round(c * n)
    if k < 1:
        raise InputError("c", f"{c} too small for n={n}: k = round(c n) = {k}, need at least 1")
    if k == n:
        raise ValueError(f"aspect ratio c={c} lands on the boundary (k={k}, n={n})")
    over = k > n
    if theta is None and over:
        theta = np.zeros(k)
        theta[0] = 1.0
    elif theta is not None and np.shape(theta) != (k,):
        raise InputError("theta", f"must have length k={k} (c={c}, n={n}), got shape {np.shape(theta)}")
    elif theta is not None and not np.isfinite(theta).all():
        raise InputError("theta", "entries must be finite")
    kept, _, retries = _replicate(_pmap(_rmt_rep, [(n, c, k, theta, seed, rep) for rep in range(reps)]))
    report = {"n": n, "k": k, "c": float(c), "reps": reps, "retries": retries}
    trace, ratio = float(np.mean([t for t, _ in kept])), k / n
    if over:
        report["trace_pinv"] = _compare(trace, above_boundary_variance(ratio, 1.0))
        report["signal_quadratic_form"] = _compare(float(np.mean([q for _, q in kept])), float(theta @ theta) / ratio)
    else:
        report["trace_inverse"] = _compare(trace, below_boundary_variance(ratio, 1.0))
    return report


def _thm1_rep(args):
    n, sizes, theta, sigma2, w, seed, rep = args
    X, Y, _ = _draw(rng_for(seed, "thm1", n, rep), n, theta, sizes[-1], False, np.sqrt(sigma2))
    return float(_risk(fit_all(Dataset(Y=Y, X=X), sizes).coefs @ w, theta)), 0, None


def validate_theorem1(
    n: int,
    sizes,
    theta: np.ndarray,
    sigma2: float,
    reps: int,
    seed: int,
    w: np.ndarray | None = None,
) -> dict:
    """Empirical out-of-sample risk of a weighted average against its limit.

    Candidates are the nested prefixes given by ``sizes``; ``_draw`` gives
    them the first ``sizes[-1]`` columns of standard normals, and the rest
    of theta enters the mean as its tail term.  The empirical risk is the
    exact conditional risk ``_risk`` of the averaged coefficients, averaged
    over ``reps`` training draws.  ``w`` must be a finite point of the
    probability simplex, one weight per candidate (``InputError`` naming ``w``
    otherwise), and put no weight on a candidate with k = n, whose limiting
    risk is infinite (``ValueError``); weight at |k - n| = 1, whose finite-n
    risk has an infinite mean, gives a ``RuntimeWarning``.  The limit sums
    the Theorem-1 row borders of ``w``, entries with w <= 0 left out.
    """
    n, reps, sizes = _counts(n, "n", 2), _counts(reps, "reps"), _candidate_sizes(sizes)
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if sizes[-1] > theta.shape[0]:
        raise InputError("sizes", "largest candidate exceeds the coefficient length")
    M = sizes.shape[0]
    w = np.full(M, 1.0 / M) if w is None else np.asarray(w, dtype=np.float64).reshape(-1)
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise InputError("sigma2", f"must be nonnegative and finite, got {sigma2}")

    sq = np.concatenate([[0.0], np.cumsum(theta**2)])
    c, norms2 = _theorem1_inputs(sizes / float(n), sq[sizes], float(sq[-1]))
    if w.shape[0] != M:
        raise InputError("w", f"weight length {w.shape[0]} does not match the {M} candidates")
    # Both comparisons are false for NaN, so this one test also stops non-finite weights.
    if not (np.all(w >= -1e-12) and abs(w.sum() - 1.0) <= 1e-8):
        problem = "must lie on the probability simplex" if np.all(np.isfinite(w)) else "must be finite"
        raise InputError("w", f"weights {problem}, got {w.tolist()}")
    if np.any((sizes == n) & (w > 0.0)):
        raise ValueError(f"candidate size k = n = {n} has positive weight; it lies on the boundary")
    if near := sizes[(abs(sizes - n) == 1) & (w > 0.0)].tolist():
        warnings.warn(f"weighted sizes {near} have |k - n| = 1: infinite expected risk at finite n", RuntimeWarning)
    bv, bb = _weighted_borders(c, norms2, float(sq[-1]) - norms2, sigma2, np.where(w > 0.0, w, 0.0))
    theo_bias, theo_var = float(bb.sum()), float(bv.sum())
    theo_risk = theo_bias + theo_var

    risks, _, _ = _replicate(_pmap(_thm1_rep, [(n, sizes, theta, sigma2, w, seed, rep) for rep in range(reps)]))
    emp = float(np.mean(risks))
    return {
        "n": n,
        "sizes": sizes.tolist(),
        "reps": reps,
        "empirical_risk": emp,
        "theoretical_risk": float(theo_risk),
        "theoretical_bias": float(theo_bias),
        "theoretical_variance": float(theo_var),
        "rel_error": _compare(emp, theo_risk)["rel_error"],
    }
