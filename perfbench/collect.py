"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

Run from the repository root:

    python3 perfbench/collect.py --label baseline --seeds 0-9

For every workload in ``BENCHMARK.json``, runs ``run.py --trace 0`` once
per seed for ``run_seconds``, one run at a time.  Each end-to-end metric gets the median
and quartiles of its per-run values (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound.  One ``--trace 1`` run at the first
seed adds the per-layer medians.  The record goes to ``BENCH_<label>.json``
beside this file, together with the environment of the first run and the
path of ``predictions.json``, which states what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run of run.py; returns its detail record and result line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description="Repeat the lama benchmark over seeds.")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range a-b (default 0-9)")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    record = {"label": args.label, "seeds": args.seeds, "seconds": seconds, "env": None,
              "workloads": {}, "predictions": "perfbench/predictions.json"}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            detail, result = bench(name, seed, seconds, 0)
            record["env"] = record["env"] or detail["env"]
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]]["value"] for r in runs])
            entry["end_to_end"][metric["name"]] = {**stats, "unit": metric["unit"], "bound": metric["bound"]}
            print(f"  {metric['name']:12s} median {stats['median']:.5g} {metric['unit']:6s} "
                  f"spread {stats['spread']:.4f} bound {metric['bound']} "
                  f"{'ok' if stats['spread'] < metric['bound'] / 3 else 'WIDE'}", flush=True)
        detail, result = bench(name, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["traced_correct"] = result["correct"]
        record["workloads"][name] = entry
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
