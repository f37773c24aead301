"""Run one meancap benchmark workload and print its metrics.

    python3 bench/run.py --workload xe-desk --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in one process, closed loop (the next unit starts when
the previous one returns), with BLAS pinned to one thread.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` replays a fixed number of
units untraced, traced, and traced again, and reports the per-layer split.
``--workload all`` runs every workload in its own process, one after the
other, each printing its own report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when any failed, and 2 when the package
cannot be imported from ``src/`` next to this directory.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

STARTED = time.perf_counter()  # the deadline and first_call_s count from here

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOAD_NAMES = ("xe-desk", "scst-pairs", "caption-eval")
# setup_s is the median of at least SETUP_REPEATS full set-ups; short ones
# are repeated until SETUP_BUDGET_S is spent, up to SETUP_MAX_REPEATS
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0
WARMUP_UNITS = 2       # run and checked, not timed
MIN_UNITS = 100        # a p90 needs at least ten samples beyond it
MIN_EVALUATES = 5
EVALUATE_SHARE = 0.1   # of --seconds, spent re-scoring the captions (caption-eval)
DEADLINE_S = 150.0     # measuring stops here whatever the minimums, to end inside 180 s
# units per traced pass: fixed, so that exact counts can be compared across runs
TRACE_UNITS = {"xe-desk": 30, "scst-pairs": 30, "caption-eval": 100}
TRACE_EVALUATES = 5
MAX_REPORTED_ERRORS = 5

# workload-specific names of the shared end-to-end metrics, for the report
NAMED = {
    "xe-desk": ("xe_steps_per_s", "xe_step_ms_p50", "xe_step_ms_p90"),
    "scst-pairs": ("scst_steps_per_s", "scst_step_ms_p50", "scst_step_ms_p90"),
    "caption-eval": ("caption_images_per_s", "caption_image_ms_p50", "caption_image_ms_p90"),
}


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def commit_hash():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "commit": commit_hash(),
    }


def import_package():
    """Import meancap from ``src/`` beside the benchmark, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import meancap

    if Path(meancap.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"meancap was imported from {meancap.__file__}, not {src}")


# ---------------------------------------------------------------------------
# running units
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, what: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(f"{what}: {'; '.join(problems)}")
        return not problems


def attempt(workload, i, tally, call=None):
    """Run and check unit ``i``; returns (seconds, output or None if failed)."""
    start = time.perf_counter()
    try:
        out = call(workload.run_unit, i) if call else workload.run_unit(i)
    except Exception:  # TrainingDiverged, or any crash: this unit failed
        tally.record(f"{workload.unit} {i}", [traceback.format_exc(limit=3)])
        return time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    ok = tally.record(f"{workload.unit} {i}", workload.check(i, out))
    return seconds, out if ok else None


def timed_setup(workload) -> float:
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        start = time.perf_counter()
        workload.setup(workdir)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def verify(workload, tally) -> None:
    """Record the workload's untimed after-set-up checks."""
    for what, problems in workload.verify():
        tally.record(what, problems)


def score_problems(scores: dict) -> list:
    return [f"{k} = {v}" for k, v in scores.items() if not 0.0 <= v < float("inf")]


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(workload, seconds: float):
    tally = Tally()
    setups = []
    while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_BUDGET_S
                                          and len(setups) < SETUP_MAX_REPEATS):
        setups.append(timed_setup(workload))
    verify(workload, tally)
    for i in range(WARMUP_UNITS):
        attempt(workload, i, tally)
    first_call_s = time.perf_counter() - STARTED

    scoring = hasattr(workload, "evaluate")
    budget = seconds * (1.0 - EVALUATE_SHARE) if scoring else seconds
    need = max(MIN_UNITS, workload.min_units)
    times = []
    i = WARMUP_UNITS
    loop_start = time.perf_counter()
    while True:
        dt, out = attempt(workload, i, tally)
        if out is not None:
            times.append(dt)
        i += 1
        now = time.perf_counter()
        if (now - loop_start >= budget and i - WARMUP_UNITS >= need) or now - STARTED > DEADLINE_S:
            break
    if not times:
        raise RuntimeError(f"every {workload.unit} failed: {tally.errors}")

    per_s = len(times) / sum(times)
    p50, p90 = 1000 * statistics.median(times), 1000 * percentile(times, 90)
    setup_s = statistics.median(setups)
    named = dict(zip(NAMED[workload.name], ((per_s, "1/s"), (p50, "ms"), (p90, "ms"))))
    if scoring:
        named.update(score_captions(workload, seconds * EVALUATE_SHARE, tally))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    named.update({"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"),
                  "failed_share": (tally.failed / tally.attempted, "share")})
    # throughput and the median stay in the report: on a host whose speed
    # drifts for minutes at a time they spread too far across runs to gate
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "unit_ms_p90": (p90, "ms"),
    }
    report = {"units_timed": len(times), "setups_s": setups, "first_call_s": first_call_s,
              "named": named}
    return tally, metrics, report


def score_captions(workload, seconds: float, tally) -> dict:
    """Re-score the first pass of captions for ``seconds``; median per call."""
    n = len(workload.captions())
    times, values = [], set()
    end = time.perf_counter() + seconds
    while len(times) < MIN_EVALUATES or (time.perf_counter() < end
                                         and time.perf_counter() - STARTED < DEADLINE_S):
        start = time.perf_counter()
        scores = workload.evaluate()
        times.append(time.perf_counter() - start)
        values.add(scores["CIDEr-D"])
        tally.record(f"evaluate {len(times)}", score_problems(scores))
    if len(values) != 1:
        tally.record("evaluate repeatability", [f"CIDEr-D took values {sorted(values)}"])
    return {"evaluate_captions_per_s": (n / statistics.median(times), "1/s"),
            "caption_cider": (values.pop(), "CIDEr-D")}


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def install_spans(tracer):
    """Wrap each layer's public function at every name its callers look up."""
    from meancap import (checkpoint, data, decoding, fastdecode, metrics, rng, tensor,
                         tokenizer, training)

    def prefixes(args, result):
        tracer.add("fastdecode.prefixes", len(args[1]))

    def non_identity(args, result):
        tracer.add("assignment.non_identity", int(any(int(p) != i for i, p in enumerate(result))))

    def saved(args, result):
        tracer.add("checkpoint.bytes", os.path.getsize(args[0]))

    sites = [
        (tensor, "backward", "tensor.backward", None),
        (training, "encode", "model.encode", None),
        (decoding, "encode", "model.encode", None),
        (training, "decode_logits", "model.decode_logits", None),
        (rng, "generator", "rng.generator", None),
        (training, "adam_update", "training.adam_update", None),
        (training, "ema_update", "training.ema_update", None),
        (training, "pairing_cost", "assignment.pairing_cost", None),
        (training, "hungarian", "assignment.hungarian", non_identity),
        (training, "beam_search", "decoding.beam_search", None),
        (decoding, "beam_search", "decoding.beam_search", None),
        (fastdecode.FastDecoder, "__init__", "fastdecode.setup", None),
        (fastdecode.FastDecoder, "expand", "fastdecode.expand", prefixes),
        (metrics, "reward", "metrics.reward", None),
        (metrics, "evaluate_all", "metrics.evaluate", None),
        (metrics, "bleu", "metrics.bleu", None),
        (metrics, "rouge_l", "metrics.rouge", None),
        (metrics, "cider_d", "metrics.cider", None),
        (training, "tokenize", "tokenizer.tokenize", None),
        (tokenizer, "tokenize", "tokenizer.tokenize", None),
        (training, "detokenize_ids", "tokenizer.detokenize", None),
        (tokenizer, "detokenize_ids", "tokenizer.detokenize", None),
        (training, "save_checkpoint", "checkpoint.save", saved),
        (checkpoint, "load_checkpoint", "checkpoint.load", None),
        (data, "generate_synthetic_dataset", "data.generate", None),
        (data, "read_features", "data.read_features", None),
    ]
    for owner, attr, name, observe in sites:
        tracer.wrap(owner, attr, name, observe)
    tracer.count_calls(tensor, "_result", "tensor.ops")


def traced_pass(workload, tracer, tally, k_units, k_evals, tag):
    """Replay warm-up plus ``k_units`` units (and evaluations) under ``tracer``."""
    workload.reset()
    install_spans(tracer)
    try:
        outs = []
        for i in range(WARMUP_UNITS + k_units):
            unit_id = f"{tag}-{'warmup' if i < WARMUP_UNITS else 'unit'}-{i}"
            _, out = attempt(workload, i, tally, lambda fn, j: tracer.run_unit(unit_id, fn, j))
            outs.append(out)
        for e in range(k_evals):
            scores = tracer.run_unit(f"{tag}-evaluate-{e}", workload.evaluate)
            tally.record(f"evaluate {e}", score_problems(scores))
    finally:
        tracer.close()
    return outs


def untraced_pass(workload, tally, k_units, k_evals):
    workload.reset()
    outs, times, eval_times = [], [], []
    for i in range(WARMUP_UNITS + k_units):
        dt, out = attempt(workload, i, tally)
        outs.append(out)
        if i >= WARMUP_UNITS:
            times.append(dt)
    for e in range(k_evals):
        start = time.perf_counter()
        scores = workload.evaluate()
        eval_times.append(time.perf_counter() - start)
        tally.record(f"evaluate {e}", score_problems(scores))
    return outs, times, eval_times


def unit_counts(tracer, prefix: str) -> dict:
    """Calls per span name plus counters, summed over units whose id has this prefix."""
    counts = Counter()
    for _sid, name, _s, _e, _p, unit in tracer.spans:
        if unit is not None and unit.startswith(prefix):
            counts[name] += 1
    for unit, named in tracer.counts.items():
        if unit is not None and unit.startswith(prefix):
            counts.update(named)
    return dict(counts)


def layer_metrics(tracer, tag: str, k_units: int, k_evals: int):
    """Per-layer numbers from one traced pass and the traced set-up, plus the
    self time per unit of every span name in the pass.

    Times are inclusive span time per unit (steps, images), per evaluation
    (the metrics.evaluate family) or per set-up (checkpoint and data), except
    training.glue_ms and decoding.beam_self_ms, which are self times.
    """
    own = tracer.self_times()
    total = defaultdict(float)
    self_ms = defaultdict(float)

    groups = {"setup": "setup", f"{tag}-unit": "loop", f"{tag}-evaluate": "evaluate"}

    def group(unit):
        return groups.get(unit.rsplit("-", 1)[0]) if unit else None

    for sid, name, start, end, _parent, unit in tracer.spans:
        g = group(unit)
        if g is not None:
            total[g, name] += end - start
            self_ms[g, name] += own[sid]
    loop = unit_counts(tracer, f"{tag}-unit-")
    setup = unit_counts(tracer, "setup")
    per_unit = 1.0 / k_units
    per_eval = 1.0 / k_evals if k_evals else 0.0

    def ms(g, name, scale):
        return 1000.0 * total[g, name] * scale

    breakdown = {name: 1000.0 * v * per_unit for (g, name), v in self_ms.items() if g == "loop"}
    hungarians = loop.get("assignment.hungarian", 0)
    values = {
        "tensor.ops_per_step": (loop.get("tensor.ops", 0) * per_unit, "count"),
        "tensor.backward_ms": (ms("loop", "tensor.backward", per_unit), "ms"),
        "model.encode_calls": (loop.get("model.encode", 0) * per_unit, "count"),
        "model.encode_ms": (ms("loop", "model.encode", per_unit), "ms"),
        "model.decode_logits_calls": (loop.get("model.decode_logits", 0) * per_unit, "count"),
        "model.decode_logits_ms": (ms("loop", "model.decode_logits", per_unit), "ms"),
        "rng.generators_per_step": (loop.get("rng.generator", 0) * per_unit, "count"),
        "rng.generator_ms": (ms("loop", "rng.generator", per_unit), "ms"),
        "training.adam_ms": (ms("loop", "training.adam_update", per_unit), "ms"),
        "training.ema_ms": (ms("loop", "training.ema_update", per_unit), "ms"),
        "training.glue_ms": (1000.0 * self_ms["loop", "unit"] * per_unit, "ms"),
        "fastdecode.setup_ms": (ms("loop", "fastdecode.setup", per_unit), "ms"),
        "fastdecode.expand_calls": (loop.get("fastdecode.expand", 0) * per_unit, "count"),
        "fastdecode.prefixes": (loop.get("fastdecode.prefixes", 0) * per_unit, "count"),
        "fastdecode.expand_ms": (ms("loop", "fastdecode.expand", per_unit), "ms"),
        "decoding.beam_search_calls": (loop.get("decoding.beam_search", 0) * per_unit, "count"),
        "decoding.beam_search_ms": (ms("loop", "decoding.beam_search", per_unit), "ms"),
        "decoding.beam_self_ms": (1000.0 * self_ms["loop", "decoding.beam_search"] * per_unit,
                                  "ms"),
        "metrics.reward_calls": (loop.get("metrics.reward", 0) * per_unit, "count"),
        "metrics.reward_ms": (ms("loop", "metrics.reward", per_unit), "ms"),
        "metrics.evaluate_ms": (ms("evaluate", "metrics.evaluate", per_eval), "ms"),
        "metrics.bleu_ms": (ms("evaluate", "metrics.bleu", per_eval), "ms"),
        "metrics.rouge_ms": (ms("evaluate", "metrics.rouge", per_eval), "ms"),
        "metrics.cider_ms": (ms("evaluate", "metrics.cider", per_eval), "ms"),
        "assignment.pairing_cost_ms": (ms("loop", "assignment.pairing_cost", per_unit), "ms"),
        "assignment.hungarian_ms": (ms("loop", "assignment.hungarian", per_unit), "ms"),
        "assignment.non_identity_share": (
            loop.get("assignment.non_identity", 0) / hungarians if hungarians else 0.0, "share"),
        "tokenizer.tokenize_ms": (ms("loop", "tokenizer.tokenize", per_unit), "ms"),
        "tokenizer.detokenize_ms": (ms("loop", "tokenizer.detokenize", per_unit), "ms"),
        "checkpoint.save_ms": (ms("setup", "checkpoint.save", 1.0), "ms"),
        "checkpoint.load_ms": (ms("setup", "checkpoint.load", 1.0), "ms"),
        "checkpoint.bytes": (float(setup.get("checkpoint.bytes", 0)), "B"),
        "data.generate_ms": (ms("setup", "data.generate", 1.0), "ms"),
        "data.read_features_ms": (ms("setup", "data.read_features", 1.0), "ms"),
        "trace.unit_ms": (ms("loop", "unit", per_unit), "ms"),
    }
    return values, breakdown


def measure_traced(workload, seed: int):
    from tracing import Tracer

    tally = Tally()
    k_units = TRACE_UNITS[workload.name]
    k_evals = TRACE_EVALUATES if hasattr(workload, "evaluate") else 0
    tracer = Tracer()
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    install_spans(tracer)
    try:
        tracer.run_unit("setup", workload.setup, workdir)
    finally:
        tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)

    verify(workload, tally)
    plain, times, eval_times = untraced_pass(workload, tally, k_units, k_evals)
    traced = traced_pass(workload, tracer, tally, k_units, k_evals, "traced")
    replay_tracer = Tracer()
    replay = traced_pass(workload, replay_tracer, tally, k_units, k_evals, "replay")

    fp = workload.fingerprint
    mismatched = [i for i, (a, b, c) in enumerate(zip(plain, traced, replay))
                  if None not in (a, b, c) and not fp(a) == fp(b) == fp(c)]
    tally.record("tracing leaves every output unchanged",
                 [f"units {mismatched} differ between passes"] if mismatched else [])
    first = {kind: unit_counts(tracer, f"traced-{kind}-") for kind in ("unit", "evaluate")}
    second = {kind: unit_counts(replay_tracer, f"replay-{kind}-") for kind in ("unit", "evaluate")}
    tally.record("counts repeat exactly",
                 [] if first == second else [f"traced {first} vs replay {second}"])

    values, breakdown = layer_metrics(tracer, "traced", k_units, k_evals)
    untraced_ms = 1000.0 * statistics.fmean(times)
    values["trace.untraced_unit_ms"] = (untraced_ms, "ms")
    values["trace.overhead_ms"] = (values["trace.unit_ms"][0] - untraced_ms, "ms")

    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    report = {"units_traced": k_units, "evaluations_traced": k_evals,
              "self_ms_per_unit": dict(sorted(breakdown.items(), key=lambda kv: -kv[1])),
              "untraced_evaluate_ms": 1000.0 * statistics.fmean(eval_times) if eval_times else None,
              "counts_per_pass": first, "spans_file": str(spans_path.relative_to(ROOT))}
    return tally, values, report


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def print_report(name, seed, trace, tally, metrics, report, machine) -> None:
    print(f"meancap benchmark: workload {name}, seed {seed}, trace {trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    for err in tally.errors:
        print(f"  failed: {err}")
    for key, (value, unit) in (report["named"] if trace == 0 else metrics).items():
        print(f"  {key:34s} {value:14.6g} {unit}")
    if trace == 1:
        print(f"  self time per {report['units_traced']} traced units (ms per unit):")
        for key, value in report["self_ms_per_unit"].items():
            print(f"    {key:32s} {value:12.4f}")
    print("report " + json.dumps(report, sort_keys=True))


def run_one(name: str, seed: int, seconds: float, trace: int, sizes=None) -> int:
    pin_blas_threads()
    try:
        import_package()
        import workloads
    except ImportError as exc:
        print(f"cannot import meancap from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, sizes or workloads.DEFAULT_SIZES[name])
    try:
        if trace:
            tally, metrics, report = measure_traced(workload, seed)
        else:
            tally, metrics, report = measure(workload, seconds)
    finally:
        workload.close()
    print_report(name, seed, trace, tally, metrics, report, machine_record())
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after the other.

    Every child prints its own report and result line; the exit code is
    the worst of theirs.
    """
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], check=False)
        print(f"workload {name}: exit code {proc.returncode}", flush=True)
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of an untraced run; a traced run replays a fixed number of units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
