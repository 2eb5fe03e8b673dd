"""One benchmark round: simulate -> train gp/imm/mkf -> evaluate -> report in a fresh process.

Run from the round directory that holds experiment.ini (and the trajectory
CSV).  Writes timings.json there: the import time of tracklearn.cli, the
time.monotonic stamps of every stage (comparable with the parent's clock),
each stage's exit code, and the process's CPU time and peak RSS at the end
of the pipeline.  With --trace it also records spans (see tracer.py) to that path.

    python3 pipeline.py --root CHECKOUT --data-seed 3 --method-seed 7 [--trace spans.json]
"""

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path


def stages(data_seed: int, method_seed: int) -> list:
    seed = ["--seed", str(method_seed)]
    out = [("simulate", ["simulate", "--config", "experiment.ini", "--out", "data",
                         "--seed", str(data_seed)])]
    for method in ("gp", "imm", "mkf"):
        out.append((f"train-{method}", ["train", "--config", "experiment.ini", "--out",
                                        f"model/{method}", "--data", "data", "--method", method]
                    + seed))
    out.append(("evaluate", ["evaluate", "--config", "experiment.ini", "--out", "eval",
                             "--data", "data"] + seed))
    out.append(("report", ["report", "--out", "eval"]))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout root holding src/tracklearn")
    parser.add_argument("--data-seed", type=int, required=True)
    parser.add_argument("--method-seed", type=int, required=True)
    parser.add_argument("--trace", help="write spans to this JSON file")
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import_start = time.monotonic()
    import tracklearn.cli as cli

    import_end = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"tracklearn imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
    marks = []
    with open("cli.log", "w") as log, redirect_stdout(log), redirect_stderr(log):
        for name, argv in stages(args.data_seed, args.method_seed):
            start = time.monotonic()
            try:
                with tracer.span("cli.main", stage=name) if tracer else nullcontext():
                    code = cli.main(argv)
            except Exception:  # a crashing stage is a failed operation, not a dead round
                traceback.print_exc()
                code = -1
            marks.append({"stage": name, "start": start, "end": time.monotonic(), "rc": code})
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    timings = {
        "import_s": import_end - import_start,
        "stages": marks,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }
    if tracer:
        tracer.dump(args.trace)
        timings["untraced_targets"] = missing
    Path("timings.json").write_text(json.dumps(timings, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
