#!/usr/bin/env python3
"""Benchmark of discoparse: training, long cold parsing, and features from
unlabeled data.  See perfbench/README.md.

One workload, one process:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
Every workload, each in its own process, one after another:
    python3 perfbench/run.py --all [--seed N] [--seconds S]
Tiny sizes, plus checks that corrupted outputs are caught:
    python3 perfbench/run.py --smoke

The last line on stdout is the result, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones of the
traced run.  The exit code is 0 when the run ended, whatever it found.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train-toy", "parse-long", "rich-unlabeled")

END_TO_END = {
    "setup_s": "s",
    "train_sents_per_s": "1/s",
    "parse_tokens_per_s": "tok/s",
    "sent_ms_p50": "ms",
    "sent_ms_p90": "ms",
    "parse_time_exponent": "1",
    "peak_rss_mb": "MB",
    "dev_f1": "%",
}

# per-layer metrics in the result line; the trace table on stderr also
# shows bigrams.build_s and clusters.load_s, which are 0 on the two
# workloads without unlabeled resources
PER_LAYER = {
    "features.extract_s": "s",
    "features.rows": "count",
    "features.hash_calls": "count",
    "features.memo_hit_ratio": "1",
    "engine.rows_needed": "count",
    "engine.row_cache_hit_ratio": "1",
    "engine.decode_self_s": "s",
    "engine.steps": "count",
    "engine.swaps": "count",
    "engine.entries_per_step": "1",
    "engine.apply_s": "s",
    "engine.applicable_s": "s",
    "engine.vroot_fallbacks": "count",
    "engine.oracle_s": "s",
    "engine.oracle_calls": "count",
    "learner.score_s": "s",
    "learner.rows_scored": "count",
    "learner.update_s": "s",
    "learner.updates": "count",
    "learner.load_s": "s",
    "learner.save_s": "s",
    "bigrams.queries": "count",
    "clusters.coverage": "1",
    "headrules.induce_s": "s",
    "treebank.read_s": "s",
    "treebank.write_s": "s",
    "evaluate.s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "1",
}


def import_program():
    """Import discoparse from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import discoparse
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import discoparse from {src}: {exc}")
    if not Path(discoparse.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: discoparse was imported from {discoparse.__file__}, not {src}")


@dataclass
class Context:
    dir: Path
    seed: int
    facts: dict = field(default_factory=dict)


@dataclass
class Unit:
    phase: str
    traced: bool
    wall: float
    spans: tuple = None       # (first, end) indices into the tracer's spans
    counters: dict = None


@contextlib.contextmanager
def work_dir(name, seed):
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def timed_unit(tracer, phase, fn, units):
    """Run ``fn`` once, traced when a tracer is given, and record its wall
    time under ``phase``."""
    if tracer is None:
        t0 = time.perf_counter()
        out = fn()
        units.append(Unit(phase, False, time.perf_counter() - t0))
        return out
    tracer.counters.clear()
    first = len(tracer.spans)
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("bench." + phase):
            out = fn()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    units.append(Unit(phase, True, wall, (first, len(tracer.spans)), dict(tracer.counters)))
    return out


def train_in_child(ctx, size):
    """Train the parse-long model in a child process, so that its memory
    does not count toward the parsing process's peak RSS."""
    cmd = [sys.executable, str(HERE / "run.py"), "--train-model", str(ctx.dir),
           "--seed", str(ctx.seed), "--size", size]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=170)
    return json.loads((ctx.dir / "trained.json").read_text())


@dataclass
class Outcome:
    result: dict
    errors: list
    ctx: Context
    state: dict
    last: object
    workload: object


def execute(name, seed, seconds, trace, size, directory):
    """One run of one workload in ``directory``."""
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](size)
    ctx = Context(directory, seed)
    wl.prepare(ctx)
    tracer = Tracer() if trace else None
    units = []
    attempted = failed = 0
    trained = None
    if hasattr(wl, "train_model"):
        attempted += 1
        if trace:
            trained = timed_unit(tracer, "prep", lambda: wl.train_model(ctx), units)
        else:
            trained = train_in_child(ctx, size)

    state = None
    for k in range(wl.setup_reps):
        state = None  # free the previous repetition's model before the next load
        state = timed_unit(tracer if trace and k % 2 else None, "setup",
                           lambda: wl.setup(ctx), units)

    rounds = []
    last = None   # the latest untraced round, kept whole for the checks
    start = time.perf_counter()
    while True:
        traced = bool(trace and len(rounds) % 2)
        if not traced and last is not None:
            last.strip()  # free its models before the next round runs
        rnd = timed_unit(tracer if traced else None, "round",
                         lambda: wl.run_round(ctx, state), units)
        rounds.append((traced, rnd))
        print(f"round {len(rounds)}{' traced' if traced else ''}: {units[-1].wall:.3f} s, "
              f"train {sum(rnd.epoch_s or ()):.3f} s, parse {sum(rnd.times):.3f} s",
              file=sys.stderr)
        if traced:
            rnd.strip()
        else:
            last = rnd
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            break
    plain = [r for traced, r in rounds if not traced]
    for _, r in rounds:
        attempted += r.attempted
        failed += r.failed

    errors = wl.check(ctx, state, last)
    if len({r.f1 for r in plain}) != 1:
        errors.append(f"rounds of identical work gave different F1: {[r.f1 for r in plain]}")

    if trace:
        metrics, trace_errors = layer_report(tracer, units)
        errors += trace_errors
    else:
        metrics = end_to_end(units, plain, trained)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return Outcome(result, errors, ctx, state, last, wl)


# ------------------------------------------------------------ metrics

def exponent(lengths, times):
    """Slope of log per-length median time against log length."""
    import numpy as np

    by_len = {}
    for n, t in zip(lengths, times):
        by_len.setdefault(n, []).append(t)
    xs = sorted(by_len)
    if len(xs) < 2:
        return float("nan")
    ys = [statistics.median(by_len[n]) for n in xs]
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def typical_total(per_round):
    """Sum over positions of the median across rounds.  Rounds repeat the
    same work, so position k is the same epoch or the same sentence in
    every round; taking medians position by position damps the swings in
    machine speed that last a few seconds."""
    return sum(statistics.median(col) for col in zip(*per_round))


def end_to_end(units, plain, trained):
    setup = [u.wall for u in units if u.phase == "setup" and not u.traced]
    if trained is not None:
        train_rounds, sents = [trained["epoch_s"]], trained["train_sents"]
    else:
        train_rounds, sents = [r.epoch_s for r in plain], plain[0].train_sents
    epochs = len(train_rounds[0])
    lengths = [n for r in plain for n in r.lengths]
    times = [t for r in plain for t in r.times]
    ms = [t * 1000.0 for t in times]
    values = {
        "setup_s": statistics.median(setup),
        "train_sents_per_s": sents * epochs / typical_total(train_rounds),
        "parse_tokens_per_s": sum(plain[0].lengths) / typical_total([r.times for r in plain]),
        "sent_ms_p50": statistics.median(ms),
        "sent_ms_p90": statistics.quantiles(ms, n=10)[8],
        "parse_time_exponent": exponent(lengths, times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "dev_f1": plain[-1].f1,
    }
    print(f"rounds {len(plain)}, sentences parsed {len(times)}", file=sys.stderr)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_report(tracer, units):
    """Per-layer metrics from the traced units, the tracing overhead, and
    the check that self times add up to each traced unit's wall time."""
    from tracing import layer_metrics

    errors = []
    overhead = 0.0
    untraced_total = 0.0
    for phase in ("setup", "round"):
        plain = [u.wall for u in units if u.phase == phase and not u.traced]
        traced = [u.wall for u in units if u.phase == phase and u.traced]
        if plain and traced:
            overhead += statistics.median(traced) - statistics.median(plain)
            untraced_total += statistics.median(plain)

    self_s = {}
    counters = {}
    for phase in ("prep", "setup", "round"):
        traced = [u for u in units if u.phase == phase and u.traced]
        if not traced:
            continue
        per_unit = []
        for u in traced:
            st = tracer.self_times(*u.spans)
            gap = u.wall - sum(st.values())
            if not -1e-6 <= gap <= max(overhead, 1e-3):
                errors.append(f"{phase}: self times sum to {sum(st.values()):.6f} s "
                              f"of a traced wall time of {u.wall:.6f} s")
            per_unit.append(st)
        for name in {n for st in per_unit for n in st}:
            self_s[name] = self_s.get(name, 0.0) + statistics.median(
                st.get(name, 0.0) for st in per_unit)
        for key in {k for u in traced for k in u.counters}:
            counters[key] = counters.get(key, 0) + statistics.median(
                u.counters.get(key, 0) for u in traced)

    layers = layer_metrics(self_s, counters)
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_ratio"] = overhead / untraced_total if untraced_total else 0.0
    if tracer.absent:
        print("absent (not traced): " + ", ".join(sorted(set(tracer.absent))), file=sys.stderr)
    for name in sorted(layers):
        print(f"  {name:28s} {layers[name]:.6g}", file=sys.stderr)
    for name in sorted(self_s):
        print(f"  self {name:23s} {self_s[name]:.6f} s", file=sys.stderr)
    return {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}, errors


# --------------------------------------------------------------- modes

def run_one(args):
    with work_dir(args.workload, args.seed) as directory:
        out = execute(args.workload, args.seed, args.seconds, args.trace, args.size, directory)
    for err in out.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps(out.result))


def run_all(args):
    """Each workload in its own process, one after another."""
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}")
            continue
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:22s} {m['value']:14.6g} {m['unit']}")


def run_train_model(args):
    from workloads import WORKLOADS

    WORKLOADS["parse-long"](args.size).train_model(Context(Path(args.train_model), args.seed))


def run_smoke(args):
    """Every workload at tiny size, untraced and traced, then the same
    outputs corrupted on purpose: each corruption must fail its check."""
    import smoke

    ok = True
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        declared = ([w["name"] for w in spec["workloads"]],
                    {m["name"]: m["unit"] for m in spec["end_to_end"]},
                    {m["name"]: m["unit"] for m in spec["per_layer"]})
        same = declared == (list(WORKLOAD_NAMES), END_TO_END, PER_LAYER)
        print(f"BENCHMARK.json {'matches' if same else 'DIFFERS FROM'} the reported metrics")
        ok &= same
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            with work_dir(name, 1) as directory:
                out = execute(name, 1, 0.0, trace, "smoke", directory)
                good = out.result["correct"] and out.result["failed"] == 0
                print(f"{name} trace={trace}: correct={out.result['correct']} "
                      f"attempted={out.result['attempted']} failed={out.result['failed']}")
                for err in out.errors:
                    print(f"  CHECK FAILED: {err}")
                ok &= good
                if trace == 0:
                    for label, caught in smoke.corruptions(out):
                        print(f"  corrupted {label}: {'caught' if caught else 'NOT CAUGHT'}")
                        ok &= caught
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--train-model", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    # single-threaded, child processes included; set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ.setdefault("DISCOPARSE_LOG", "WARNING")
    import_program()
    if args.smoke:
        return run_smoke(args)
    if args.all:
        run_all(args)
    elif args.train_model:
        run_train_model(args)
    else:
        run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
