"""Synthetic and real-data experiment harnesses with keyed, replayable RNG.

Randomness never flows through shared generator state: every replication
derives its own generator from (base seed, setting keys, replication index,
stream tag), so any single replication can be reproduced in isolation and
results are identical at any worker count.  Aggregation walks replications
in index order, which keeps output bytes stable.
"""

from __future__ import annotations

import math
import os
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import criteria as crit
from .models import Dataset, build_nested, default_model_counts, fit_all, order_by_cp
from .qp import solve_simplex_qp
from .risk_theory import PowerLawProfile, RiskMatrices, _theorem1_entries, asymptotic_risk

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


def _stable_key(key) -> int:
    """Map one key of any basic type to a stable nonnegative integer."""
    if isinstance(key, (bool, np.bool_)):
        return int(key)
    if isinstance(key, (int, np.integer)) and 0 <= int(key) < 2**32:
        return int(key)
    return zlib.crc32(repr(key).encode())


def rng_for(base_seed: int, *keys) -> np.random.Generator:
    """Deterministic generator keyed by (base seed, arbitrary key tuple)."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(_stable_key(k) for k in keys))
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


def _pmap(fn, items, workers: int):
    """Order-preserving map, optionally across worker processes."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers, initializer=_limit_blas) as ex:
        return list(ex.map(fn, items, chunksize=chunk))


# ---------------------------------------------------------------------------
# Weight choice dispatch


@dataclass(frozen=True)
class WeightChoice:
    """One method's chosen weights on the full candidate list.

    Candidates a method cannot handle (interpolating ones, for the
    leave-one-out and large-model criteria) carry weight 0 and appear in
    ``excluded``.
    """

    method: str
    weights: np.ndarray
    criterion_value: float | None = None
    sigma2_hat: float | None = None
    xi: float | None = None
    excluded: tuple[int, ...] = ()

    def to_record(self) -> dict:
        return {
            "method": self.method,
            "weights": [float(x) for x in self.weights],
            "criterion_value": None if self.criterion_value is None else float(self.criterion_value),
            "sigma_hat": None if self.sigma2_hat is None else float(self.sigma2_hat),
            "xi": None if self.xi is None else float(self.xi),
        }


def _scatter(length: int, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros(length)
    out[idx] = values
    return out


def compute_weights(
    fits,
    method: str,
    sigma2_hat: float | None = None,
    xi_override: float | None = None,
) -> WeightChoice:
    """Chosen weights for one method tag (see ALL_METHODS)."""
    method = method.lower()
    M = fits.M

    if method == "uniform":
        return WeightChoice(method, np.full(M, 1.0 / M))

    if method in {"aic", "bic", "saic", "sbic"}:
        w = crit.info_criterion_weights(fits, method)
        excluded = tuple(int(i) for i in np.flatnonzero(fits.rss <= 0.0))
        return WeightChoice(method, w, excluded=excluded)

    if method == "mma":
        s2 = crit.sigma_hat(fits) if sigma2_hat is None else sigma2_hat
        program = crit.mma_program(fits, s2)
        report = solve_simplex_qp(program.A, program.b)
        return WeightChoice(method, report.weights, report.objective, s2)

    if method == "jma":
        keep = ~crit.loo_flagged(fits)
        dropped = np.flatnonzero(~keep)
        if dropped.size:
            warnings.warn(
                f"leave-one-out criterion: excluding interpolating candidate(s) {dropped.tolist()}",
                RuntimeWarning,
                stacklevel=2,
            )
        if not np.any(keep):
            raise ValueError("every candidate interpolates; leave-one-out undefined")
        sub = fits.subset(keep)
        program = crit.jma_program(sub)
        report = solve_simplex_qp(program.A, program.b)
        w = _scatter(M, np.flatnonzero(keep), report.weights)
        return WeightChoice(method, w, report.objective, excluded=tuple(dropped.tolist()))

    if method == "lama":
        s2 = crit.sigma_hat(fits) if sigma2_hat is None else sigma2_hat
        keep = fits.sizes < fits.n
        dropped = np.flatnonzero(~keep)
        if dropped.size:
            warnings.warn(
                f"large-model criterion: excluding boundary candidate(s) {dropped.tolist()} with k >= n",
                RuntimeWarning,
                stacklevel=2,
            )
        if not np.any(keep):
            raise ValueError("every candidate has k >= n; criterion undefined")
        sub = fits.subset(keep)
        if xi_override is None:
            xi_val = crit.xi(np.diag(crit.v_out_matrix(sub, s2)), crit.b_in_diag(sub, s2))
        else:
            xi_val = float(xi_override)
        program = crit.lama_program(sub, s2, xi_val)
        report = solve_simplex_qp(program.A, program.b)
        w = _scatter(M, np.flatnonzero(keep), report.weights)
        # report the per-observation criterion (the program is on the n-scale)
        return WeightChoice(method, w, report.objective / sub.n, s2, xi_val, tuple(dropped.tolist()))

    raise ValueError(f"unknown method {method!r} (choose from {ALL_METHODS})")


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
    test_size: int = 1000
    Sigma: np.ndarray | None = None  # covariance of the non-intercept regressors
    exclude_boundary: bool = False  # drop the k = n candidate if the grid reaches it
    truncate_loss: float | None = None  # cap per-replication relative losses

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "r2_values", tuple(float(r) for r in self.r2_values))
        if self.m_values is not None:
            object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "methods", tuple(m.lower() for m in self.methods))
        if not self.n_values or min(self.n_values) < 4:
            raise ValueError("need sample sizes of at least 4")
        if any(not 0.0 < r < 1.0 for r in self.r2_values):
            raise ValueError("R-squared values must lie in (0, 1)")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        m_max = max(self.m_values) if self.m_values else max(default_model_counts(max(self.n_values)))
        if self.p < m_max:
            raise ValueError(f"p={self.p} smaller than the largest candidate count {m_max}")
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")

    def to_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "r2_values": list(self.r2_values),
            "alpha": self.alpha,
            "p": self.p,
            "m_values": None if self.m_values is None else list(self.m_values),
            "replications": self.replications,
            "seed": self.seed,
            "methods": list(self.methods),
            "test_size": self.test_size,
            "exclude_boundary": self.exclude_boundary,
            "truncate_loss": self.truncate_loss,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        d = dict(d)
        for key in ("n_values", "r2_values", "m_values", "methods"):
            if d.get(key) is not None:
                d[key] = tuple(d[key])
        if d.get("Sigma") is not None:
            d["Sigma"] = np.asarray(d["Sigma"], dtype=np.float64)
        return cls(**d)


def generate_data(cfg: SimulationConfig, r2: float, rep: int, n: int | None = None, m: int | None = None):
    """One replication's training and test draws.

    Returns (train Dataset, test Dataset, theta, mu_train, mu_test).  The
    generator keys include every setting coordinate (n, M, R2, rep, stream),
    so each cell is reproducible on its own; n and m default to the config's
    first sample size and its largest candidate count.
    """
    if n is None:
        n = cfg.n_values[0]
    if m is None:
        m = max(cfg.m_values) if cfg.m_values is not None else max(default_model_counts(n))
    return _generate(cfg, int(n), float(r2), int(m), int(rep))


def _draw_design(rng, rows: int, cfg: SimulationConfig) -> np.ndarray:
    body = rng.standard_normal((rows, cfg.p - 1))
    if cfg.Sigma is not None:
        body = body @ np.linalg.cholesky(cfg.Sigma).T
    return np.column_stack([np.ones(rows), body])


def _generate(cfg: SimulationConfig, n: int, r2: float, m: int, rep: int):
    profile = PowerLawProfile.from_r2(r2, cfg.alpha, cfg.p)
    theta = profile.coefficients(cfg.p)
    rng_train = rng_for(cfg.seed, "train", n, m, r2, rep)
    rng_test = rng_for(cfg.seed, "test", n, m, r2, rep)
    X = _draw_design(rng_train, n, cfg)
    mu = X @ theta
    Y = mu + rng_train.standard_normal(n)
    Xt = _draw_design(rng_test, cfg.test_size, cfg)
    mu_t = Xt @ theta
    Yt = mu_t + rng_test.standard_normal(cfg.test_size)
    train = Dataset(Y=Y, X=X, has_intercept=True)
    test = Dataset(Y=Yt, X=Xt, has_intercept=True)
    return train, test, theta, mu, mu_t


def relative_losses(
    ensemble_train: dict[str, np.ndarray],
    ensemble_test: dict[str, np.ndarray],
    pred_train: np.ndarray,
    pred_test: np.ndarray,
    mu_train: np.ndarray,
    mu_test: np.ndarray,
):
    """Per-method squared losses relative to the best single candidate.

    Returns (rows, excluded) where rows maps method -> (relative in-sample
    loss, relative out-of-sample loss).  When a candidate matches the true
    mean exactly the denominators degenerate and the replication is flagged
    for exclusion instead of producing a division by zero.
    """
    den_in = float(np.min(np.sum((pred_train - mu_train[:, None]) ** 2, axis=0)))
    den_out = float(np.min(np.sum((pred_test - mu_test[:, None]) ** 2, axis=0)))
    if den_in <= 1e-12 or den_out <= 1e-12:
        return {}, True
    rows = {}
    for method, fit_tr in ensemble_train.items():
        num_in = float(np.sum((fit_tr - mu_train) ** 2))
        num_out = float(np.sum((ensemble_test[method] - mu_test) ** 2))
        rows[method] = (num_in / den_in, num_out / den_out)
    return rows, False


def _sim_rep(args):
    cfg, n, m, r2, rep = args
    train, test, _, mu, mu_t = _generate(cfg, n, r2, m, rep)
    sizes = np.arange(1, m + 1)
    if cfg.exclude_boundary:
        sizes = sizes[sizes != n]
    cands = build_nested(np.arange(cfg.p), sizes)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fits = fit_all(train, cands)
            pred_tr = fits.predict(train.X)
            pred_te = fits.predict(test.X)
            ens_tr, ens_te = {}, {}
            for method in cfg.methods:
                w = compute_weights(fits, method).weights
                ens_tr[method] = pred_tr @ w
                ens_te[method] = pred_te @ w
    except (ValueError, np.linalg.LinAlgError) as exc:
        return {"failed": str(exc)}
    rows, degenerate = relative_losses(ens_tr, ens_te, pred_tr, pred_te, mu, mu_t)
    if degenerate:
        return {"degenerate": True}
    if cfg.truncate_loss is not None:
        cap = float(cfg.truncate_loss)
        rows = {m_: (min(a, cap), min(b, cap)) for m_, (a, b) in rows.items()}
    return {"losses": rows}


def run_simulation(cfg: SimulationConfig, workers: int | None = None) -> list[dict]:
    """Mean relative losses per (method, n, M, R2) over the replications.

    Rows come back in a canonical order: n, then M, then R2 as configured,
    then methods as configured.  Failed or degenerate replications are
    dropped from the averages and counted in ``excluded_reps``.
    """
    workers = worker_count() if workers is None else workers
    rows: list[dict] = []
    for n in cfg.n_values:
        m_list = cfg.m_values if cfg.m_values is not None else default_model_counts(n)
        for m in m_list:
            if m > cfg.p:
                raise ValueError(f"candidate count {m} exceeds p={cfg.p}")
            for r2 in cfg.r2_values:
                tasks = [(cfg, n, m, r2, rep) for rep in range(cfg.replications)]
                results = _pmap(_sim_rep, tasks, workers)
                per_method = {method: [] for method in cfg.methods}
                excluded = 0
                for res in results:
                    if "losses" not in res:
                        excluded += 1
                        continue
                    for method, (li, lo) in res["losses"].items():
                        per_method[method].append((li, lo))
                for method in cfg.methods:
                    vals = np.asarray(per_method[method], dtype=np.float64)
                    if vals.size == 0:
                        mean_in = mean_out = var_out = float("nan")
                    else:
                        mean_in = float(np.mean(vals[:, 0]))
                        mean_out = float(np.mean(vals[:, 1]))
                        var_out = float(np.var(vals[:, 1], ddof=1)) if vals.shape[0] > 1 else 0.0
                    rows.append(
                        {
                            "method": method,
                            "n": int(n),
                            "M": int(m),
                            "R2": float(r2),
                            "rel_loss_in_mean": mean_in,
                            "rel_loss_out_mean": mean_out,
                            "rel_loss_out_var": var_out,
                            "excluded_reps": int(excluded),
                        }
                    )
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


def _real_split(args):
    (X, Y, sizes, n_train, methods, seed, rep) = args
    N = X.shape[0]
    rng = rng_for(seed, "real-split", n_train, rep)
    for _retry in range(100):
        idx = rng.permutation(N)
        tr, te = idx[:n_train], idx[n_train:]
        if np.ptp(Y[tr]) > 0.0:
            break
    else:
        return {"degenerate": True}
    train = Dataset(Y=Y[tr], X=X[tr], has_intercept=bool(np.allclose(X[:, 0], 1.0)))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cands = build_nested(np.arange(X.shape[1]), sizes)
            fits = fit_all(train, cands)
            pred_te = fits.predict(X[te])
            errs = {}
            for method in methods:
                w = compute_weights(fits, method).weights
                errs[method] = float(np.sum((pred_te @ w - Y[te]) ** 2)) / (N - n_train)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return {"failed": str(exc)}
    return {"errors": errs, "retries": int(_retry)}


def evaluate_real(
    data: Dataset,
    n_train: int,
    reps: int,
    seed: int,
    methods=QUADRATIC_METHODS,
    max_models: int | None = None,
    workers: int | None = None,
) -> list[dict]:
    """Repeated random-split evaluation on one dataset.

    The regressors are put in forward-selection order once, on the full
    data, before any splitting; candidates are the nested prefixes
    k = 1..M with M = min(p, floor(0.9 n_train)) unless ``max_models``
    overrides it.  Each split trains every method and scores squared test
    error normalized by the test-set size.  Splits with a constant training
    response are redrawn (and counted); failed splits are dropped.
    """
    N = data.n
    if not 2 <= n_train < N:
        raise ValueError(f"n_train must be in [2, {N - 1}]")
    methods = tuple(m.lower() for m in methods)
    ordering = order_by_cp(data)
    M = min(data.p, math.floor(0.9 * n_train)) if max_models is None else int(max_models)
    if not 1 <= M <= data.p:
        raise ValueError(f"max_models must be in [1, {data.p}]")
    sizes = np.arange(1, M + 1)
    X = data.X[:, ordering]
    workers = worker_count() if workers is None else workers

    tasks = [(X, data.Y, sizes, n_train, methods, seed, rep) for rep in range(reps)]
    results = _pmap(_real_split, tasks, workers)
    per_method = {method: [] for method in methods}
    excluded = 0
    redraws = 0
    for res in results:
        if "errors" not in res:
            excluded += 1
            continue
        redraws += res.get("retries", 0)
        for method, err in res["errors"].items():
            per_method[method].append(err)
    rows = []
    for method in methods:
        vals = np.asarray(per_method[method], dtype=np.float64)
        rows.append(
            {
                "method": method,
                "n_train": int(n_train),
                "test_err_mean": float(np.mean(vals)) if vals.size else float("nan"),
                "test_err_var": float(np.var(vals, ddof=1)) if vals.size > 1 else 0.0,
                "reps": int(vals.size),
                "excluded": excluded,
                "redraws": redraws,
            }
        )
    return rows


def real_eval_csv(rows: list[dict], fh) -> None:
    fh.write("method,n_train,test_err_mean,test_err_var,reps\n")
    for r in rows:
        fh.write(
            f"{r['method']},{r['n_train']},{r['test_err_mean']!r},{r['test_err_var']!r},{r['reps']}\n"
        )


# ---------------------------------------------------------------------------
# Monte-Carlo validation of the closed-form limits


def validate_rmt(n: int, c: float, reps: int, seed: int, theta: np.ndarray | None = None) -> dict:
    """Empirical random-matrix limits against their closed forms.

    Below the boundary: tr((X'X)^-1) against c/(1-c).  Above: tr((X'X)^+)
    against 1/(c-1) and the projected signal quadratic form against
    |theta|^2 / c.  Singular draws are redrawn and counted.  ``theta``, when
    given, must have length k = round(c n) on either side of the boundary;
    it defaults to the first basis vector and is used only above it.
    """
    if n < 4:
        raise ValueError("n too small")
    k = round(c * n)
    if k < 1 or k == n:
        raise ValueError(f"aspect ratio c={c} lands on the boundary (k={k}, n={n})")
    over = k > n
    if theta is None and over:
        theta = np.zeros(k)
        theta[0] = 1.0
    elif theta is not None and np.shape(theta) != (k,):
        raise ValueError(f"theta must have length k={k} (c={c}, n={n}), got shape {np.shape(theta)}")
    retries = 0
    traces = []
    quads = []
    for rep in range(reps):
        rng = rng_for(seed, "rmt", n, float(c), rep)
        for _ in range(20):
            X = rng.standard_normal((n, k))
            try:
                if over:
                    Ginv = np.linalg.inv(X @ X.T)
                    traces.append(float(np.trace(Ginv)))
                    u = X @ theta
                    quads.append(float(u @ Ginv @ u))
                else:
                    traces.append(float(np.trace(np.linalg.inv(X.T @ X))))
                break
            except np.linalg.LinAlgError:
                retries += 1
        else:
            raise np.linalg.LinAlgError("could not draw a nonsingular design in 20 tries")
    report = {
        "n": n,
        "k": k,
        "c": float(c),
        "reps": reps,
        "retries": retries,
    }
    if over:
        th_trace = 1.0 / (c - 1.0)
        th_quad = float(theta @ theta) / c
        emp_trace = float(np.mean(traces))
        emp_quad = float(np.mean(quads))
        report["trace_pinv"] = {
            "empirical": emp_trace,
            "theoretical": th_trace,
            "rel_error": abs(emp_trace - th_trace) / th_trace,
        }
        report["signal_quadratic_form"] = {
            "empirical": emp_quad,
            "theoretical": th_quad,
            "rel_error": abs(emp_quad - th_quad) / th_quad,
        }
    else:
        th_trace = c / (1.0 - c)
        emp_trace = float(np.mean(traces))
        report["trace_inverse"] = {
            "empirical": emp_trace,
            "theoretical": th_trace,
            "rel_error": abs(emp_trace - th_trace) / th_trace,
        }
    return report


def validate_theorem1(
    n: int,
    sizes,
    theta: np.ndarray,
    sigma2: float,
    reps: int,
    seed: int,
    w: np.ndarray | None = None,
    test_size: int = 1000,
) -> dict:
    """Empirical out-of-sample risk of a weighted average against its limit.

    Gaussian design with p = len(theta) regressors; candidates are the
    nested prefixes given by ``sizes``.  The empirical risk averages the
    squared deviation of the ensemble prediction from the true mean over an
    independent test draw, then over replications.
    """
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    p = theta.shape[0]
    if sizes[-1] > p:
        raise ValueError("largest candidate exceeds the coefficient length")
    M = sizes.shape[0]
    w = np.full(M, 1.0 / M) if w is None else np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape[0] != M:
        raise ValueError("weight length does not match candidate count")
    if sigma2 < 0.0:
        raise ValueError("sigma2 must be nonnegative")

    c = sizes / float(n)
    sq = np.concatenate([[0.0], np.cumsum(theta**2)])
    norms2 = sq[sizes]
    re2 = float(sq[-1]) - norms2
    DV, DB = _theorem1_entries(c, norms2, re2, sigma2)
    theo_risk, theo_bias, theo_var = asymptotic_risk(w, RiskMatrices(variance=DV, bias=DB))

    cands = build_nested(np.arange(p), sizes)
    risks = []
    for rep in range(reps):
        rng = rng_for(seed, "thm1", n, rep)
        X = rng.standard_normal((n, p))
        Y = X @ theta + (np.sqrt(sigma2) * rng.standard_normal(n) if sigma2 > 0 else 0.0)
        fits = fit_all(Dataset(Y=Y, X=X), cands)
        Xt = rng.standard_normal((test_size, p))
        pred = fits.predict(Xt) @ w
        risks.append(float(np.mean((pred - Xt @ theta) ** 2)))
    emp = float(np.mean(risks))
    denom = theo_risk if theo_risk > 0 else 1.0
    return {
        "n": n,
        "sizes": [int(k) for k in sizes],
        "reps": reps,
        "test_size": test_size,
        "empirical_risk": emp,
        "theoretical_risk": float(theo_risk),
        "theoretical_bias": float(theo_bias),
        "theoretical_variance": float(theo_var),
        "rel_error": abs(emp - theo_risk) / denom,
    }
