"""Benchmark runner: timed rounds, output checks, end-to-end and per-layer metrics."""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import tracing

BLAS_THREADS = 1     # run.py sets the BLAS thread variables to this before numpy loads
SETUP_REPEATS = 3    # timed set-ups per round; the round runs on the last one


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    timings: dict[str, list[tuple[str, float]]] = field(default_factory=dict)  # kind -> (key, s)
    outputs: dict[str, Any] = field(default_factory=dict)     # first round, by op key
    digests: dict[str, str] = field(default_factory=dict)     # first round, by op key
    failures: dict[str, str] = field(default_factory=dict)    # by op instance
    attempted: int = 0
    state: Any = None


def measure(workload, seed: int, seconds: float, out_dir: Path, min_rounds: int = 2,
            setup_repeats: int = SETUP_REPEATS, tracer: tracing.Tracer | None = None,
            reference: dict[str, str] | None = None) -> Outcome:
    """Run rounds, each from fresh set-ups, until ``seconds`` have passed.

    The corpus text is synthesised once, untimed. Each round then times
    ``setup_repeats`` set-ups from that text and runs its operations on the
    last one. At least ``min_rounds`` rounds start and the first one
    completes; later rounds may stop after any operation. Set-ups are spread
    over the run like the operations, so both see the same mix of machine
    load. Every op output is checked and its digest compared with the first
    round's (or with ``reference``, the digests of another pass over the
    same seed).
    """
    clock = time.perf_counter
    out = Outcome()
    text = workload.inputs(seed)
    reference = reference if reference is not None else out.digests
    start = clock()
    round_index = 0
    while round_index < min_rounds or clock() - start < seconds:
        if tracer is not None:
            tracer.op = f"setup#{round_index}"
        for _ in range(setup_repeats):
            out.state = None     # release the previous state before building the next
            t0 = clock()
            out.state = workload.setup(seed, text, out_dir)
            out.setup_s.append(clock() - t0)
        _run_round(workload, out, round_index, reference, tracer,
                   deadline=start + seconds if round_index > 0 else math.inf)
        round_index += 1
    return out


def _run_round(workload, out: Outcome, round_index: int, reference: dict[str, str],
               tracer: tracing.Tracer | None, deadline: float) -> None:
    clock = time.perf_counter
    for op in workload.round(out.state):
        instance = f"{op.key}#{round_index}"
        if tracer is not None:
            tracer.op = instance
        out.attempted += 1
        t0 = clock()
        try:
            result = op.run()
        except Exception:    # a failed operation is counted, not fatal
            out.failures[instance] = traceback.format_exc()
            continue
        elapsed = clock() - t0
        out.timings.setdefault(op.kind, []).append((op.key, elapsed))
        problem = op.check(result)
        digest = op.digest(result)
        if round_index == 0:
            out.outputs[op.key] = result
            out.digests[op.key] = digest
        if problem is None and reference.get(op.key, digest) != digest:
            problem = f"output differs from the first run of {op.key}"
        if problem is not None:
            out.failures[instance] = problem
        if clock() >= deadline:
            return


def run_checks(workload, out: Outcome) -> None:
    for key, problem in workload.final_checks(out.state).items():
        out.failures.setdefault(f"{key}#0", problem)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, out: Outcome) -> dict[str, tuple[float, str]]:
    """The gated metrics. Operation times are means, the inverse of
    throughput: host slowdowns come in stretches of several seconds, so a
    round's samples move together, and the mean of a run's two to four
    rounds varies less from run to run than their median."""
    def mean(kind):
        return statistics.fmean(seconds for _, seconds in out.timings[kind])
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "primary_op_s_mean": (mean(workload.primary), "s"),
        "secondary_op_s_mean": (mean(workload.secondary), "s"),
    }


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    for p in range(99, 49, -1):
        if n - math.ceil(n * p / 100) >= 10:
            return p
    return None


def describe(name: str, values: list[float], unit: str) -> dict[str, dict]:
    """``<name>_p50`` with its sample count, and the highest percentile that
    has at least ten samples beyond it, when there is one."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    entries = {f"{name}_p50": {"value": statistics.median(ordered), "unit": unit,
                               "samples": len(ordered), "highest_supported_percentile": p}}
    if p is not None and p > 50:
        entries[f"{name}_p{p}"] = {"value": ordered[math.ceil(len(ordered) * p / 100) - 1],
                                   "unit": unit, "samples": len(ordered)}
    return entries


def report(workload, out: Outcome) -> dict:
    """Every end-to-end figure the workload produces, by name and unit."""
    entries = {"setup_s": {"value": statistics.median(out.setup_s), "unit": "s",
                           "samples": len(out.setup_s)},
               "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
               "failed_share": {"value": len(out.failures) / out.attempted, "unit": "1",
                                "attempted": out.attempted}}
    for name, (value, unit) in workload.report(out.state, out.timings, out.outputs).items():
        if isinstance(value, list):
            entries.update(describe(name, value, unit))
        else:
            entries[name] = {"value": value, "unit": unit}
    return entries


# metric -> (span names, field of tracing.LayerTotals, unit)
PER_LAYER: dict[str, tuple[tuple[str, ...], str, str]] = {
    "numkit.backward_s": (("numkit.backward", "topic.backward"), "total_s", "s"),
    "numkit.gru_cell_s": (("numkit.gru_cell",), "total_s", "s"),
    "numkit.gru_cell_calls": (("numkit.gru_cell",), "calls", "count"),
    "numkit.adam_step_s": (("numkit.adam_step",), "total_s", "s"),
    "numkit.clip_global_norm_s": (("numkit.clip_global_norm",), "total_s", "s"),
    "net.encode_persona_s": (("net.encode_persona",), "total_s", "s"),
    "net.encode_history_s": (("net.encode_history",), "total_s", "s"),
    "net.attend_history_s": (("net.attend_history",), "total_s", "s"),
    "net.decode_step_s": (("net.decode_step",), "total_s", "s"),
    "net.decode_step_self_s": (("net.decode_step",), "self_s", "s"),
    "net.decode_steps": (("net.decode_step",), "calls", "count"),
    "memory.build_memory_s": (("memory.build_memory",), "total_s", "s"),
    "memory.persona_information_retrieval_s": (("memory.persona_information_retrieval",),
                                               "total_s", "s"),
    "memory.multihop_s": (("memory.multihop",), "total_s", "s"),
    "memory.multihop_calls": (("memory.multihop",), "calls", "count"),
    "losses.nll_loss_s": (("losses.nll_loss",), "total_s", "s"),
    "losses.p_match_loss_s": (("losses.p_match_loss",), "total_s", "s"),
    "losses.p_bows_loss_s": (("losses.p_bows_loss",), "total_s", "s"),
    "topic.train_topic_model_s": (("topic.train_topic_model",), "total_s", "s"),
    "topic.backward_s": (("topic.backward",), "total_s", "s"),
    "topic.word_topic_vectors_s": (("topic.word_topic_vectors",), "total_s", "s"),
    "expansion.expand_s": (("expansion.expand",), "total_s", "s"),
    "expansion.nearest_words_s": (("expansion.nearest_words",), "total_s", "s"),
    "expansion.nearest_words_calls": (("expansion.nearest_words",), "calls", "count"),
    "corpus.load_personachat_s": (("corpus.load_personachat",), "total_s", "s"),
    "corpus.build_vocab_s": (("corpus.build_vocab",), "total_s", "s"),
    "corpus.compute_tfidf_s": (("corpus.compute_tfidf",), "total_s", "s"),
    "net.bind_example_s": (("net.bind_example",), "total_s", "s"),
    "metrics.evaluate_corpus_s": (("metrics.evaluate_corpus",), "total_s", "s"),
}


def per_layer(tracer: tracing.Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced setup and round."""
    totals = tracing.layer_totals(tracer.spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name, (spans, attr, unit) in PER_LAYER.items():
        value = sum(getattr(totals[s], attr) for s in spans if s in totals)
        metrics[name] = (float(value) if unit == "s" else int(value), unit)
    in_steps = tracing.layer_totals(tracer.spans, lambda op: op.startswith("train_step"))
    step_loss = in_steps.get("trainer.example_loss", tracing.LayerTotals())
    metrics["trainer.example_loss_s"] = (step_loss.total_s, "s")
    records = tracer.counts["numkit.tape_records"]
    metrics["numkit.tape_records_per_example"] = (
        records / step_loss.calls if step_loss.calls else 0.0, "count")
    metrics["expansion.cosine_calls"] = (tracer.counts["expansion.cosine_calls"], "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def layer_table(tracer: tracing.Tracer) -> dict:
    return {name: {"total_s": t.total_s, "self_s": t.self_s, "calls": t.calls}
            for name, t in sorted(tracing.layer_totals(tracer.spans).items())}


def traced_pass(workload, seed: int, out_dir: Path, untraced: Outcome):
    """One traced setup and round over the same seed as ``untraced``."""
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        traced = measure(workload, seed, 0.0, out_dir, min_rounds=1, setup_repeats=1,
                         tracer=tracer, reference=untraced.digests)
    finally:
        restore()
    untraced_s: dict[str, list[float]] = {}
    for samples in untraced.timings.values():
        for key, seconds in samples:
            untraced_s.setdefault(key, []).append(seconds)
    overhead = sum(seconds - statistics.median(untraced_s[key])
                   for samples in traced.timings.values() for key, seconds in samples)
    return tracer, traced, overhead


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python_threads": threading.active_count(),
        "seed": seed,
    }


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload; prints the environment and the full report as JSON
    lines and returns the result object."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment(seed)
    if env["python_threads"] != 1 or env["blas_threads"] not in (None, BLAS_THREADS):
        raise RuntimeError(f"load is not pinned to one thread: {env}")
    print(json.dumps({"env": env}), flush=True)

    failures: dict[str, str] = {}

    def collect(label: str, outcome: Outcome) -> None:
        for instance, problem in outcome.failures.items():
            print(f"check failed: {label} {instance}: {problem}", file=sys.stderr)
            failures[f"{label} {instance}"] = problem

    untraced = measure(workload, seed, seconds, out_dir)
    run_checks(workload, untraced)
    collect("untraced", untraced)
    attempted = untraced.attempted
    record: dict[str, Any] = {"workload": workload.name, "env": env,
                              "report": report(workload, untraced),
                              "setup_s": untraced.setup_s, "timings": untraced.timings}
    print(json.dumps({"report": record["report"]}), flush=True)
    if trace:
        tracer, traced, overhead = traced_pass(workload, seed, out_dir, untraced)
        collect("traced", traced)
        attempted += traced.attempted
        metrics = per_layer(tracer, overhead)
        record["layers"] = layer_table(tracer)
        tracer.write_jsonl(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(workload, untraced)
    record["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    path = out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    return result
