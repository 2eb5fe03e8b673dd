"""Benchmark of the tracklearn CLI pipeline: simulate -> train gp/imm/mkf -> evaluate -> report.

Run from the root of a checkout:

    python3 bench/run.py --workload tape-train --seed 1 --seconds 30 --trace 0

One round is the whole pipeline in a fresh Python process (pipeline.py).
Round k runs on inputs made from data seed 1000 * seed + k; rounds repeat
until the next one would overrun --seconds, and there are at least the
workload's `rounds`.  Timings are medians over rounds; the accuracy metrics
pool the test tracklets of the first `rounds` rounds, so they depend on the
seed alone.  With --trace 1 the rounds alternate traced and untraced and the
result holds the per-layer metrics instead.  The outputs of the first round
are then checked against independent computations (checks.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Operations are the six CLI stages of every round plus every check
and self-test; a train stage whose loss history is shorter than its
configured steps counts as failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, layer_metrics, load_tree
from workloads import METHOD_SEED, WORKLOADS, write_inputs

BENCH = Path(__file__).resolve().parent
ROUND_TIMEOUT_S = 150
END_TO_END = {
    "setup_s": "s", "train_s": "s", "evaluate_s": "s", "pipeline_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "ekf_post_rmse_m": "m", "gp_post_rmse_m": "m",
    "imm_post_rmse_m": "m", "mkf_post_rmse_m": "m",
}


def data_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def run_round(root: Path, round_dir: Path, workload, seed: int, trace_path: Path | None) -> dict:
    round_dir.mkdir(parents=True)
    write_inputs(workload, round_dir, seed)
    cmd = [sys.executable, str(BENCH / "pipeline.py"), "--root", str(root),
           "--data-seed", str(seed), "--method-seed", str(METHOD_SEED)]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=round_dir, timeout=ROUND_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    wall = time.monotonic() - spawned
    timings_path = round_dir / "timings.json"
    if proc.returncode != 0 or not timings_path.exists():
        raise RuntimeError(f"pipeline process failed ({proc.returncode}):\n{proc.stdout}")
    timings = json.loads(timings_path.read_text())
    stages = {s["stage"]: s for s in timings["stages"]}

    def span(*names):
        return sum(stages[n]["end"] - stages[n]["start"] for n in names)

    return {
        "dir": round_dir, "trace": trace_path, "wall": wall, "stages": stages,
        "import_s": timings["import_s"],
        "setup_s": stages["simulate"]["end"] - spawned,
        "train_s": span("train-gp", "train-imm", "train-mkf"),
        "evaluate_s": span("evaluate", "report"),
        "pipeline_s": stages["report"]["end"] - spawned,
        "cpu_s": timings["cpu_s"], "peak_rss_mb": timings["peak_rss_mb"],
    }


def history_complete(round_dir: Path, workload, method: str) -> bool:
    """A train stage whose loss history is shorter than its configured steps failed."""
    path = round_dir / "model" / method / "loss_history.csv"
    if not path.exists():
        return False
    return method == "gp" or len(path.read_text().splitlines()) - 1 == workload.steps(method)


def stage_outcomes(rounds: list, workload) -> list[tuple[str, str | None]]:
    outcomes = []
    for k, r in enumerate(rounds):
        for name, stage in r["stages"].items():
            problem = None if stage["rc"] == 0 else f"exit code {stage['rc']}"
            method = name.removeprefix("train-")
            if problem is None and name.startswith("train-") and not history_complete(r["dir"], workload, method):
                problem = f"loss history shorter than {workload.steps(method)} steps"
            outcomes.append((f"round {k} {name}", problem))
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tracklearn" / "cli.py").is_file():
        print(f"error: {root} holds no src/tracklearn; run from the checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_name = f"{workload.name}-s{args.seed}"
    run_dir = BENCH / "out" / run_name
    trace_dir = BENCH / "traces" / run_name
    for old in (run_dir, trace_dir):
        shutil.rmtree(old, ignore_errors=True)
    if args.trace:
        trace_dir.mkdir(parents=True)

    rounds = []
    started = time.monotonic()
    while True:
        k = len(rounds)
        trace_path = trace_dir / f"round-{k}.json" if args.trace and k % 2 == 0 else None
        rounds.append(run_round(root, run_dir / f"round-{k}", workload, data_seed(args.seed, k),
                                trace_path))
        longest = max(r["wall"] for r in rounds)
        if len(rounds) >= workload.rounds and time.monotonic() - started + longest > args.seconds:
            break

    import checks  # imports tracklearn from src/

    outcomes = stage_outcomes(rounds, workload)
    ev = checks.gather(rounds[0]["dir"], workload, data_seed(args.seed, 0))
    check_results = checks.run_checks(ev) + checks.self_test(ev)
    outcomes += check_results
    failures = [(name, msg) for name, msg in outcomes if msg]

    if args.trace:
        metrics, detail = per_layer(rounds)
    else:
        rmse = checks.post_rmse([r["dir"] for r in rounds[:workload.rounds]])
        metrics, detail = end_to_end(rounds, rmse)
    per_round = [{key: r[key] for key in ("wall", "setup_s", "train_s", "evaluate_s", "pipeline_s",
                                          "cpu_s", "peak_rss_mb", "import_s")} for r in rounds]
    report = {"workload": workload.name, "seed": args.seed, "rounds": per_round,
              "failures": failures, "metrics": metrics, "detail": detail}
    (run_dir / "result.json").write_text(json.dumps(report, indent=1, default=str))
    for r in rounds[1:]:  # round 0 stays for inspection
        shutil.rmtree(r["dir"])

    walls = ", ".join(f"{r['wall']:.2f}" for r in rounds)
    print(f"{workload.name} seed {args.seed}: {len(rounds)} rounds, round wall {walls} s")
    for name, msg in failures:
        print(f"FAILED {name}: {msg}")
    for name, info in metrics.items():
        print(f"  {name:36s} {info['value']:14.6g} {info['unit']}")
    for name, count in detail.items():
        print(f"  calls {name:30s} {count}")
    result = {
        "correct": not any(msg for _, msg in check_results),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def end_to_end(rounds: list, rmse: dict) -> tuple[dict, dict]:
    metrics = {}
    for name, unit in END_TO_END.items():
        if name.endswith("_post_rmse_m"):
            value = rmse[name.split("_")[0]]
        else:
            value = statistics.median(r[name] for r in rounds)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, {}


def per_layer(rounds: list) -> tuple[dict, dict]:
    traced = [r for r in rounds if r["trace"]]
    plain = [r for r in rounds if not r["trace"]]
    overhead = (statistics.median(r["pipeline_s"] for r in traced)
                - statistics.median(r["pipeline_s"] for r in plain))
    trees = [load_tree(r["trace"]) for r in traced]
    values, calls = layer_metrics(trees, [r["import_s"] for r in rounds], overhead)
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
    return metrics, calls


if __name__ == "__main__":
    sys.exit(main())
