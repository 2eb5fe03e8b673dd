"""Spans around calls into tracklearn's public functions, and the per-layer metrics read from them.

The tracer lives in the benchmark, not in the program: `Tracer.install`
replaces each target function (in every tracklearn module that imported it)
with a wrapper that records a span.  A span is [name, parent, start, end,
attrs]; times come from time.perf_counter, parent is the index of the
enclosing span (-1 at the top).  Spans stay in memory and are written once,
when the pipeline ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _tape_growth_before(args, kwargs):
    return len(args[0].tape)


def _tape_growth_after(args, kwargs, result, before):
    return {"nodes": len(args[0].tape) - before}


def _loss_nodes(args, kwargs, result, before):
    return {"nodes": len(result.tape), "steps": len(args[1])}


def _backward_before(args, kwargs):
    return time.process_time()


def _backward_after(args, kwargs, result, before):
    return {"nodes": len(args[0].tape), "cpu": time.process_time() - before}


def _predict_size(args, kwargs, result, before):
    return {"n": len(args[0].inputs), "m": len(args[1])}


# (module, attribute path, before hook, after hook).  A target the program no
# longer has is skipped; the metrics that need it then read 0.
TARGETS = [
    ("config", "ExperimentConfig.load", None, None),
    ("simulate", "make_dataset", None, None),
    ("simulate", "ingest_csv", None, None),
    ("simulate", "save_dataset", None, None),
    ("simulate", "load_dataset", None, None),
    ("statespace", "StateEstimate.__post_init__", None, None),
    ("ekf", "init_track", None, None),
    ("ekf", "run_ekf", None, None),
    ("ekf", "predict_cwna", None, None),
    ("ekf", "ekf_update", None, None),
    ("ekf", "nll_term", None, None),
    ("autodiff", "backward", _backward_before, _backward_after),
    ("imm", "train_imm", None, None),
    ("imm", "imm_nll", None, None),
    ("imm", "run_imm", None, None),
    ("imm", "ImmGraph.step", _tape_growth_before, _tape_growth_after),
    ("imm", "save_imm", None, None),
    ("imm", "load_imm", None, None),
    ("mkf", "train_mkf", None, None),
    ("mkf", "mkf_loss", None, _loss_nodes),
    ("mkf", "run_mkf", None, None),
    ("mkf", "lstm_step", None, None),
    ("mkf", "mkf_predict", None, None),
    ("mkf", "mkf_update", None, None),
    ("mkf", "save_mkf", None, None),
    ("mkf", "load_mkf", None, None),
    ("gp", "gp_fit", None, None),
    ("gp", "fit_hyper", None, None),
    ("gp", "GpModel.__init__", None, None),
    ("gp", "GpModel.predict_batch", None, _predict_size),
    ("gp", "save_gp", None, None),
    ("gp", "load_gp", None, None),
    ("gp", "init_particles", None, None),
    ("gp", "pf_step", None, None),
    ("gp", "pf_propagate", None, None),
    ("gp", "pf_reweight", None, None),
    ("gp", "pf_estimate", None, None),
    ("gp", "pf_resample", None, None),
    ("gp", "pf_reseed", None, None),
    ("runner", "run_ekf_method", None, None),
    ("runner", "run_gp_method", None, None),
    ("runner", "run_imm_method", None, None),
    ("runner", "run_mkf_method", None, None),
    ("evaluate", "make_report", None, None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name)
        span[4] = attrs or None
        span[2] = time.perf_counter()
        try:
            yield span
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            token = before(args, kwargs) if before else None
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if after:
                span[4] = after(args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "tracklearn") -> list[str]:
        """Wrap every target; returns the targets that were not found."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        missing = []
        for mod_name, path, before, after in TARGETS:
            module = sys.modules.get(f"{package}.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                missing.append(f"{mod_name}.{path}")
                continue
            name = f"{mod_name}.{path}"
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, original.__func__, before, after)))
            elif owner_name:
                setattr(owner, attr, self.wrap(name, original, before, after))
            else:
                wrapped = self.wrap(name, original, before, after)
                for mod in modules:  # rebind `from .x import f` copies too
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        return missing

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "attrs"], "spans": self.spans}, fh)


# -- per-layer metrics ---------------------------------------------------------


class SpanTree:
    """Index over one pipeline's spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, (name, parent, *_rest) in enumerate(spans):
            self.children[parent].append(i)
            self.by_name[name].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][3] - self.spans[i][2]

    def attrs(self, i: int) -> dict:
        return self.spans[i][4] or {}

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def within(self, name: str, ancestor: str) -> list[int]:
        """Spans called `name` that have an ancestor called `ancestor`."""
        out = []
        for i in self.by_name[name]:
            p = self.spans[i][1]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][1]
            if p >= 0:
                out.append(i)
        return out

    def paired(self, parent_name: str, first: str, second: str) -> list[float]:
        """Durations of `first` + the `second` that follows it, among each parent's children."""
        sums = []
        for p in self.by_name[parent_name]:
            kids = self.children[p]
            for a, b in zip(kids, kids[1:]):
                if self.spans[a][0] == first and self.spans[b][0] == second:
                    sums.append(self.dur(a) + self.dur(b))
        return sums

    def pf_steps(self) -> list[float]:
        """One particle-filter cycle per pf_propagate: from its start to the end
        of the last child before the next propagate (or pf_step spans, if used)."""
        if self.by_name["gp.pf_step"]:
            return [self.dur(i) for i in self.by_name["gp.pf_step"]]
        steps = []

        def close(group):
            if group:
                steps.append(self.spans[group[-1]][3] - self.spans[group[0]][2])

        for p in self.by_name["runner.run_gp_method"]:
            group = []
            for c in self.children[p]:
                name = self.spans[c][0]
                if name in ("gp.pf_propagate", "gp.init_particles", "ekf.init_track"):
                    close(group)
                    group = [c] if name == "gp.pf_propagate" else []
                elif group:
                    group.append(c)
            close(group)
        return steps


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, description); the order is the order of BENCHMARK.json's per_layer list
LAYER_METRICS = {
    "autodiff.imm_nodes_per_step": ("count", "tape nodes one IMM filter step records"),
    "autodiff.mkf_nodes_per_step": ("count", "tape nodes per LSTM step of the MKF loss"),
    "autodiff.record_us_per_node": ("us", "IMM step and MKF loss recording time over their nodes"),
    "autodiff.backward_us_per_node": ("us", "backward time over the nodes of the tapes it walked"),
    "autodiff.backward_cpu_per_wall": ("ratio", "process CPU time over wall time inside backward"),
    "imm.step_fb_ms": ("ms", "one IMM training step: imm_nll + backward on one tracklet"),
    "imm.step_fwd_ms": ("ms", "one IMM filter step inside run_imm"),
    "mkf.step_fb_ms": ("ms", "one MKF training iteration: mkf_loss + backward"),
    "mkf.lstm_step_us": ("us", "one plain-numpy LSTM cell step"),
    "mkf.run_ms": ("ms", "run_mkf on one tracklet"),
    "ekf.step_us": ("us", "predict_cwna + ekf_update inside run_ekf"),
    "ekf.run_ms": ("ms", "run_ekf on one tracklet"),
    "statespace.estimate_us": ("us", "StateEstimate validation (__post_init__)"),
    "statespace.estimates_per_ekf_step": ("count", "StateEstimates built per EKF step"),
    "gp.fit_hyper_s": ("s", "hyperparameter ascent, per axis (0 when the GP is unfitted)"),
    "gp.factor_ms": ("ms", "GpModel build: kernel matrix and Cholesky factor"),
    "gp.predict_batch_ms": ("ms", "one predict_batch call (one axis, all particles)"),
    "gp.predict_mflop": ("Mflop", "N^2 M + 12 N M per predict_batch call"),
    "gp.pf_step_ms": ("ms", "one particle-filter cycle"),
    "gp.reseeds_per_step": ("ratio", "weight-collapse reseeds per particle-filter step"),
    "simulate.generate_s": ("s", "dataset generation or CSV ingest, per simulate"),
    "simulate.save_s": ("s", "dataset CSV write, per simulate"),
    "simulate.load_s": ("s", "one load_dataset call"),
    "evaluate.report_s": ("s", "one make_report call"),
    "runner.self_s": ("s", "runner time not covered by filter spans, per pipeline"),
    "cli.self_s": ("s", "CLI time not covered by library spans, per pipeline"),
    "process.import_s": ("s", "import of tracklearn.cli in a fresh process"),
    "trace.overhead_s": ("s", "traced pipeline_s minus untraced pipeline_s"),
}


def layer_metrics(trees: list[SpanTree], import_s: list[float],
                  overhead_s: float) -> tuple[dict, dict]:
    """Per-layer values pooled over the traced pipelines: medians per call, except
    the per-node, per-step and ratio figures, which divide totals."""

    def pool(fn):
        return [v for t in trees for v in fn(t)]

    def durs(name):
        return pool(lambda t: [t.dur(i) for i in t.by_name[name]])

    imm_steps = pool(lambda t: t.by_name["imm.ImmGraph.step"])
    step_nodes = pool(lambda t: [t.attrs(i)["nodes"] for i in t.by_name["imm.ImmGraph.step"]])
    mkf_losses = pool(lambda t: [t.attrs(i) | {"dur": t.dur(i)} for i in t.by_name["mkf.mkf_loss"]])
    record_s = sum(pool(lambda t: [t.dur(i) for i in t.by_name["imm.ImmGraph.step"]]))
    record_s += sum(m["dur"] for m in mkf_losses)
    backward = pool(lambda t: [t.attrs(i) | {"dur": t.dur(i)} for i in t.by_name["autodiff.backward"]])
    ekf_steps = pool(lambda t: t.paired("ekf.run_ekf", "ekf.predict_cwna", "ekf.ekf_update"))
    predicts = pool(lambda t: [t.attrs(i) for i in t.by_name["gp.GpModel.predict_batch"]])
    pf_steps = pool(lambda t: t.pf_steps())
    reseeds = sum(len(t.by_name["gp.pf_reseed"]) for t in trees)
    propagates = sum(len(t.by_name["gp.pf_propagate"]) for t in trees)
    estimates_in_ekf = sum(len(t.within("statespace.StateEstimate.__post_init__", "ekf.run_ekf"))
                           for t in trees)
    predicts_in_ekf = sum(len(t.within("ekf.predict_cwna", "ekf.run_ekf")) for t in trees)

    def per_pipeline(fn):
        return _median([fn(t) for t in trees])

    values = {
        "autodiff.imm_nodes_per_step": _median(step_nodes),
        "autodiff.mkf_nodes_per_step": _median([m["nodes"] / m["steps"] for m in mkf_losses]),
        "autodiff.record_us_per_node": 1e6 * _ratio(record_s, sum(step_nodes)
                                                    + sum(m["nodes"] for m in mkf_losses)),
        "autodiff.backward_us_per_node": 1e6 * _ratio(sum(b["dur"] for b in backward),
                                                      sum(b["nodes"] for b in backward)),
        "autodiff.backward_cpu_per_wall": _ratio(sum(b["cpu"] for b in backward),
                                                 sum(b["dur"] for b in backward)),
        "imm.step_fb_ms": _median(pool(lambda t: t.paired("imm.train_imm", "imm.imm_nll",
                                                          "autodiff.backward")), 1e3),
        "imm.step_fwd_ms": _median(pool(lambda t: [t.dur(i) for i in
                                                   t.within("imm.ImmGraph.step", "imm.run_imm")]), 1e3),
        "mkf.step_fb_ms": _median(pool(lambda t: t.paired("mkf.train_mkf", "mkf.mkf_loss",
                                                          "autodiff.backward")), 1e3),
        "mkf.lstm_step_us": _median(durs("mkf.lstm_step"), 1e6),
        "mkf.run_ms": _median(durs("mkf.run_mkf"), 1e3),
        "ekf.step_us": _median(ekf_steps, 1e6),
        "ekf.run_ms": _median(durs("ekf.run_ekf"), 1e3),
        "statespace.estimate_us": _median(durs("statespace.StateEstimate.__post_init__"), 1e6),
        "statespace.estimates_per_ekf_step": _ratio(estimates_in_ekf, predicts_in_ekf),
        "gp.fit_hyper_s": _median(durs("gp.fit_hyper")),
        "gp.factor_ms": _median(durs("gp.GpModel.__init__"), 1e3),
        "gp.predict_batch_ms": _median(durs("gp.GpModel.predict_batch"), 1e3),
        "gp.predict_mflop": _median([p["n"] ** 2 * p["m"] + 12 * p["n"] * p["m"] for p in predicts],
                                    1e-6),
        "gp.pf_step_ms": _median(pf_steps, 1e3),
        "gp.reseeds_per_step": _ratio(reseeds, propagates),
        "simulate.generate_s": per_pipeline(
            lambda t: sum(t.dur(i) for n in ("simulate.make_dataset", "simulate.ingest_csv")
                          for i in t.by_name[n])),
        "simulate.save_s": per_pipeline(
            lambda t: sum(t.dur(i) for i in t.by_name["simulate.save_dataset"])),
        "simulate.load_s": _median(durs("simulate.load_dataset")),
        "evaluate.report_s": _median(durs("evaluate.make_report")),
        "runner.self_s": per_pipeline(
            lambda t: sum(t.self_time(i) for n, ids in t.by_name.items()
                          if n.startswith("runner.") for i in ids)),
        "cli.self_s": per_pipeline(lambda t: sum(t.self_time(i) for i in t.by_name["cli.main"])),
        "process.import_s": _median(import_s),
        "trace.overhead_s": overhead_s,
    }
    calls = {
        "imm.ImmGraph.step": len(imm_steps), "mkf.mkf_loss": len(mkf_losses),
        "autodiff.backward": len(backward), "ekf steps": len(ekf_steps),
        "gp.GpModel.predict_batch": len(predicts), "pf steps": len(pf_steps),
        "gp.fit_hyper": len(durs("gp.fit_hyper")), "gp.GpModel.__init__": len(durs("gp.GpModel.__init__")),
        "mkf.lstm_step": len(durs("mkf.lstm_step")), "mkf.run_mkf": len(durs("mkf.run_mkf")),
        "ekf.run_ekf": len(durs("ekf.run_ekf")), "gp.pf_reseed": reseeds,
        "statespace.StateEstimate": len(durs("statespace.StateEstimate.__post_init__")),
        "simulate.load_dataset": len(durs("simulate.load_dataset")),
        "evaluate.make_report": len(durs("evaluate.make_report")), "pipelines": len(trees),
    }
    return values, calls


def load_tree(path) -> SpanTree:
    with open(path) as fh:
        return SpanTree(json.load(fh)["spans"])
