"""Benchmark of the ``lama`` CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload eval-crime --seed 0 --seconds 30 --trace 0

A run is a closed loop with one client.  It starts one CLI process at a time
(``child.py``, which calls ``lama.cli.run(argv)`` as the ``lama`` script
does) until ``--seconds`` have passed and at least three have run.  Every
process gets ``LAMA_THREADS=1`` and one BLAS thread.  The workload seed is
passed to the CLI as ``--seed`` (the surface workload has no seed flag; the
seed picks its signal profile instead).

* ``--trace 0``: every process is untraced; the end-to-end metrics are
  medians over the processes.  Their times are scaled to a reference
  machine speed: ``probe()`` runs before and after every process, and a
  process's times are divided by the mean of the two probe times over
  REFERENCE_PROBE_S (its items per second multiplied).  The detail record
  keeps the unscaled figures too.
* ``--trace 1``: untraced and traced processes alternate.  The traced ones
  record spans around the calls into each layer (``tracing.py``); the
  per-layer metrics are medians over them.

Every process's stdout is checked: the workload's output checks, byte
identity across the processes of one seed, and traced against untraced.  A
process that exits nonzero or fails a check fails every item it attempted;
a determinism mismatch fails every item of the run.  The next-to-last
stdout line is a JSON detail record (environment, per-metric median and
quartiles, checks); the last line is the result
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``--tiny`` shrinks every workload for a smoke test.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
CHILD_ENV = {
    "LAMA_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 120.0
LOOP_LIMIT_S = 120.0  # stop starting processes past this, even below MIN_PROCESSES
REFERENCE_PROBE_S = 0.15  # probe() on the 2-core Intel Xeon of the baseline, when uncontended

END_TO_END = {
    "items_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "qp.calls": "count",
    "qp.busy_s": "s",
    "qp.solve_ms_p50": "ms",
    "qp.solve_ms_p99": "ms",
    "qp.iterations": "count",
    "qp.iterations_max": "count",
    "qp.nonconverged": "count",
    "qp.kkt_residual_max": "1",
    "models.fit_all.calls": "count",
    "models.fit_all.busy_s": "s",
    "models.fit_all.candidates": "count",
    "models.fit_all.past_boundary_calls": "count",
    "models.predict.busy_s": "s",
    "models.order_by_cp.busy_s": "s",
    "criteria.program.calls": "count",
    "criteria.program.busy_s": "s",
    "criteria.estimate.busy_s": "s",
    "criteria.excluded_candidates": "count",
    "experiments.self_s": "s",
    "experiments.compute_weights.self_s": "s",
    "experiments.relative_losses.busy_s": "s",
    "experiments.excluded_items": "count",
    "experiments.redraws": "count",
    "risk_theory.risk_surface.busy_s": "s",
    "risk_theory.cells": "count",
    "datasets.load.busy_s": "s",
    "cli.import_s": "s",
    "cli.write.busy_s": "s",
    "trace.work_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


# ---------------------------------------------------------------------------
# Workloads: each maps (seed, tiny) to (CLI argv, items attempted, check).
# check(stdout) returns the output's problems; any problem fails every item
# of the process.


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def eval_crime(seed: int, tiny: bool):
    splits = 4 if tiny else 50
    argv = ["eval", "--data", "crime", "--n-train", "18", "--methods", "mma,jma,lama",
            "--reps", str(splits), "--seed", str(seed)]

    def check(text: str):
        rows = _rows(text)
        err = {r["method"]: float(r["test_err_mean"]) for r in rows}
        problems = []
        if len(rows) != 3 or sorted(err) != ["jma", "lama", "mma"]:
            problems.append(f"expected rows mma, jma, lama; got {[r['method'] for r in rows]}")
        elif not all(math.isfinite(v) for v in err.values()):
            problems.append(f"non-finite test error {err}")
        elif not err["lama"] < err["jma"] < err["mma"]:
            problems.append(f"expected lama < jma < mma, got {err}")
        if any(int(r["reps"]) != splits for r in rows):
            problems.append(f"reps {[r['reps'] for r in rows]} differ from the {splits} splits requested")
        return problems

    return argv, splits, check


def simulate_boundary(seed: int, tiny: bool):
    reps = 2 if tiny else 12
    cells = (45, 100)
    argv = ["simulate", "--n", "50", "--m", ",".join(map(str, cells)), "--r2", "0.5",
            "--p", "1000", "--methods", "mma,jma,lama", "--reps", str(reps), "--seed", str(seed)]

    def check(text: str):
        rows = _rows(text)
        problems = []
        if len(rows) != 3 * len(cells):
            problems.append(f"expected {3 * len(cells)} rows, got {len(rows)}")
        excluded = {r["M"]: int(r["excluded_reps"]) for r in rows}
        if any(excluded.values()):
            problems.append(f"excluded replications per M: {excluded}")
        for m in cells:
            loss = {r["method"]: float(r["rel_loss_out_mean"]) for r in rows if r["M"] == str(m)}
            if sorted(loss) != ["jma", "lama", "mma"] or not all(map(math.isfinite, loss.values())):
                problems.append(f"M={m}: expected finite mma, jma, lama losses, got {loss}")
            elif not loss["lama"] < min(loss["mma"], loss["jma"]):
                problems.append(f"M={m}: expected lama below mma and jma, got {loss}")
        return problems

    return argv, reps * len(cells), check


def surface_grid(seed: int, tiny: bool):
    step = 60 if tiny else 5
    grid = f"20:200:{step}"
    cells = len(range(20, 201, step)) ** 2
    rng = random.Random(seed)
    snr, decay = rng.uniform(0.5, 2.0), rng.uniform(0.5, 0.8)
    argv = ["surface", "--n-range", grid, "--m-range", grid, "--weights", "varpen",
            "--snr", f"{snr:.4f}", "--decay", f"{decay:.4f}"]

    def check(text: str):
        risk = [float(r["risk"]) for r in _rows(text)]
        finite = [v for v in risk if math.isfinite(v)]
        problems = []
        if len(risk) != cells:
            problems.append(f"expected {cells} cells, got {len(risk)}")
        if len(finite) < len(risk):
            problems.append(f"{len(risk) - len(finite)} non-finite cells")
        if finite and not max(finite) / min(finite) < 20.0:
            problems.append(f"risk max/min {max(finite) / min(finite)} not below 20")
        return problems

    return argv, cells, check


WORKLOADS = {
    "eval-crime": eval_crime,
    "simulate-boundary": simulate_boundary,
    "surface-grid": surface_grid,
}


# ---------------------------------------------------------------------------
# Processes


def probe() -> float:
    """Seconds taken by a fixed task of the workloads' kind.

    Small LAPACK and BLAS calls inside a Python loop, then larger QR
    factorizations and products.  Other tenants of a shared machine slow the
    probe and the CLI alike, for minutes at a time (up to 1.7x on a shared
    2-core Intel Xeon VM), which scaling by the neighbouring probe times
    cancels.  No lama code runs in the probe, so a change to lama moves the
    scaled figures as much as the unscaled ones.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.standard_normal((16, 16))
    A = A @ A.T
    B = rng.standard_normal((100, 1000))
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += float(np.linalg.eigvalsh(A)[0]) + float((A @ A[i % 16]).sum())
        acc += sum(j * 0.5 for j in range(100))
    for _ in range(9):
        acc += float(np.linalg.qr(B.T)[1][0, 0]) + float((B @ B.T).trace())
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("probe produced a non-finite value")
    return elapsed


def run_process(root: Path, tmp: Path, argv: list[str], mode: str) -> dict:
    """Start one child process, wait for it, and collect its stdout and report."""
    fd, report_path = tempfile.mkstemp(dir=tmp, suffix=".json")
    os.close(fd)
    cmd = [sys.executable, str(HERE / "child.py"), report_path, mode, "--", *argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    exited = time.monotonic()
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = None
    finally:
        os.unlink(report_path)
    return {"rc": proc.returncode, "stdout": out, "stderr": err.decode(errors="replace"),
            "spawned": spawned, "wall_s": exited - spawned, "report": report}


def _completed(proc: dict) -> bool:
    return proc["rc"] == 0 and proc["report"] is not None and "work_s" in proc["report"]


def judge(proc: dict, check) -> None:
    """Fill in a process's problems from its exit and output."""
    if not _completed(proc):
        tail = proc["stderr"].strip().splitlines()[-1:] or [""]
        proc["problems"] = [f"exit code {proc['rc']}: {tail[0]}"]
        return
    try:
        proc["problems"] = check(proc["stdout"].decode())
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        proc["problems"] = [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------------------
# Summaries


def _median_quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _git(root: Path, *args: str) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(root: Path, seed: int, versions: dict) -> dict:
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **versions,
        **CHILD_ENV,
        "seed": seed,
    }


def end_to_end(plain: list[dict], items: int, scaled: bool = True) -> dict[str, list[float]]:
    """Per-process end-to-end values; times scaled to the reference speed unless not ``scaled``."""
    slow = [p["slowdown"] if scaled else 1.0 for p in plain]
    return {
        "items_per_s": [(0 if p["problems"] else items) / p["report"]["work_s"] * s for p, s in zip(plain, slow)],
        "wall_s": [p["wall_s"] / s for p, s in zip(plain, slow)],
        "setup_s": [(p["report"]["ready"] - p["spawned"]) / s for p, s in zip(plain, slow)],
        "peak_rss_mb": [p["report"]["peak_rss_mb"] for p in plain],
    }


def per_layer(plain: list[dict], traced: list[dict], pairs: list[tuple[dict, dict]]) -> dict[str, list[float]]:
    """Per-process layer values.

    The overhead compares each traced process with the untraced one just
    before it, unscaled: the two ran under nearly the same contention, and
    scaling each by its own probes adds more noise than it removes.
    """
    layers = [tracing.layer_metrics(p["report"]["spans"]) for p in traced]
    values = {name: [m[name] for m in layers] for name in layers[0]}
    values["cli.import_s"] = [p["report"]["import_s"] for p in plain + traced]
    values["trace.work_s"] = [p["report"]["work_s"] for p in traced]
    values["trace.overhead_frac"] = [t["wall_s"] / p["wall_s"] - 1.0 for p, t in pairs]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one lama CLI workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload for a smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lama" / "cli.py").is_file():
        print(f"error: {root} holds no src/lama/cli.py; run from the repository root", file=sys.stderr)
        return 2
    tmp = root / ".bench_build" / "perfbench"
    tmp.mkdir(parents=True, exist_ok=True)
    cli_argv, items, check = WORKLOADS[args.workload](args.seed, args.tiny)
    os.environ.update(CHILD_ENV)  # for the probe's BLAS here and for every child

    warm = run_process(root, tmp, [], "warm")
    if warm["rc"] != 0 or warm["report"] is None:
        print(f"error: cannot import lama.cli: {warm['stderr'].strip()}", file=sys.stderr)
        return 2
    plain: list[dict] = []
    traced: list[dict] = []
    modes = [("plain", plain), ("trace", traced)][: 1 + args.trace]
    probe()  # the first call pays for loading LAPACK
    before = probe()
    begin = time.monotonic()
    while True:
        for mode, procs in modes:
            proc = run_process(root, tmp, cli_argv, mode)
            after = probe()
            proc["slowdown"] = (before + after) / (2.0 * REFERENCE_PROBE_S)
            procs.append(proc)
            before = after
        elapsed = time.monotonic() - begin
        if elapsed >= args.seconds and (len(plain) >= MIN_PROCESSES or elapsed >= LOOP_LIMIT_S):
            break

    for proc in plain + traced:
        judge(proc, check)
    hashes = {"plain": sorted({hashlib.sha256(p["stdout"]).hexdigest() for p in plain}),
              "trace": sorted({hashlib.sha256(p["stdout"]).hexdigest() for p in traced})}
    mismatches = []
    if len(hashes["plain"]) > 1:
        mismatches.append("stdout differs between untraced processes of one seed")
    if traced and hashes["trace"] != hashes["plain"]:
        mismatches.append("traced stdout differs from untraced stdout")
    attempted = items * len(plain + traced)
    failed = attempted if mismatches else items * sum(bool(p["problems"]) for p in plain + traced)
    problems = sorted({msg for proc in plain + traced for msg in proc["problems"]}) + mismatches

    plain_ok = [p for p in plain if _completed(p)]
    traced_ok = [p for p in traced if _completed(p)]
    pairs = [(p, t) for p, t in zip(plain, traced) if _completed(p) and _completed(t)]
    if not plain_ok or (args.trace and not pairs):
        print(f"error: no process of {args.workload} completed: {problems}", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(plain_ok, traced_ok, pairs)
        values["failed_frac"] = [failed / attempted]
        units = PER_LAYER
    else:
        values = end_to_end(plain_ok, items)
        values["ok_frac"] = [1.0 - failed / attempted]
        units = END_TO_END

    summary = {name: {**_median_quartiles(values[name]), "unit": unit} for name, unit in units.items()}
    detail = {
        "workload": args.workload,
        "argv": cli_argv,
        "env": environment(root, args.seed, plain_ok[0]["report"]["versions"]),
        "processes": {"plain": len(plain), "trace": len(traced)},
        "stdout_sha256": hashes,
        "problems": problems,
        "metrics": summary,
        "slowdown": _median_quartiles([p["slowdown"] for p in plain_ok + traced_ok]),
        "unscaled": {name: _median_quartiles(v) for name, v in end_to_end(plain_ok, items, False).items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
