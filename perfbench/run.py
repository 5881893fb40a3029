"""Benchmark for destackify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) in this process, closed loop, one
input after another, and repeats the whole input set until S seconds of
timed work have accumulated.  Every output is checked outside the timed
region.  The last line of standard output is one JSON object: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
run with `--trace 1`.  `--workload all` runs each workload in its own
process, one after another, and prints one row per workload.

Exit codes: 0 when every output is correct, 1 when a check failed,
2 when the package or its inputs cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 9
# Time metrics are rescaled to a machine on which `reference_work` takes
# this long (see README.md, "Reference speed").
REFERENCE_S = 0.2

class LoadError(Exception):
    """The package under test or a workload input cannot be loaded."""


def reference_work() -> int:
    """Fixed pure-Python work that shares nothing with the package: the
    same mix of Fraction arithmetic, tuples, frozensets, dicts, sorting
    and integer gcd loops that the workloads spend their time on."""
    rng = random.Random(0)
    acc = Fraction(0)
    counts: dict = {}
    seen = set()
    total = 0
    for i in range(40_000):
        a = tuple(rng.randint(-9, 9) for _ in range(3))
        acc += Fraction(a[0], abs(a[1]) + 2)
        key = frozenset(a)
        counts[key] = counts.get(key, 0) + 1
        seen.add(tuple(sorted(a, reverse=True)))
        x, y = 1_000_003 * i + 7, abs(a[2]) * 97 + 13
        while y:
            x, y = y, x % y
        total += x
    return total + len(counts) + len(seen) + acc.denominator


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def import_program() -> wl.Program:
    """Import the package from this checkout's `src`, discarding any
    earlier import so that every set-up pays for its own."""
    for name in [m for m in sys.modules
                 if m == "destackify" or m.startswith("destackify.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("destackify.cli")
    except ImportError as err:
        raise LoadError(f"cannot import destackify from {SRC}: {err}") from err
    dk = sys.modules["destackify"]
    if Path(dk.__file__).resolve().parent != SRC / "destackify":
        raise LoadError(f"imported destackify from {dk.__file__}, "
                        f"not from {SRC}")
    return wl.Program(dk=dk, cli=cli)


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate, serialise, parse and validate; timed as a whole."""
    t0 = time.perf_counter()
    prog = import_program()
    try:
        docs = wl.workload_docs(workload, seed, ROOT)
    except OSError as err:
        raise LoadError(str(err)) from err
    inputs = wl.serialise(docs, workdir if workload == "pipeline" else None)
    for inp in inputs:
        prog.cli.parse_fan(inp.text)
    return time.perf_counter() - t0, prog, inputs


def run_pass(workload: str, prog: wl.Program, inputs, fans, workdir: Path):
    """Every input once; returns the outcomes and the pass wall time."""
    budget = wl.RANK3_BUDGET if workload == "algb-rank3" else None
    outs = []
    start = time.perf_counter()
    for inp, fan in zip(inputs, fans):
        t0 = time.perf_counter()
        try:
            if workload == "pipeline":
                out = wl.run_pipeline(prog, inp,
                                      workdir / f"{inp.name}.trace.jsonl")
            else:
                out = wl.run_algorithm_b(prog, fan, budget)
        except Exception as err:  # counted as a failed input, run goes on
            out = wl.Outcome(error=f"{type(err).__name__}: {err}")
        out.seconds = time.perf_counter() - t0
        out.name = inp.name
        outs.append(out)
    return outs, time.perf_counter() - start


def check_pass(workload: str, outs, pinned: dict) -> int:
    failed = 0
    for out in outs:
        problems = wl.check(workload, out, pinned)
        if problems:
            failed += 1
            print(f"FAIL {workload} {out.name}: {'; '.join(problems)}",
                  file=sys.stderr)
    return failed


def measure(args, workdir: Path) -> dict:
    setup_ref = time_reference()
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, prog, inputs = set_up(args.workload, args.seed, workdir)
        setups.append(dt)
    pinned = wl.load_pinned()
    modules = {layer: sys.modules[f"destackify.{layer}"]
               for layer in tr.LAYERS}
    modules["package"] = prog.dk

    walls, per_input, steps = [], [], set()
    refs = []  # reference time measured just before each untraced pass
    traced_walls, traced_refs, layer_runs = [], [], []
    attempted = failed = 0
    timed = 0.0
    last_tracer = None
    while timed < args.seconds or not walls \
            or (args.trace and not traced_walls):
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        gc.collect()
        if traced:
            traced_refs.append(time_reference())
            tracer = tr.Tracer()
            with tracer.patch(modules, prog.dk.StackyFan):
                fans = [prog.cli.parse_fan(i.text) for i in inputs]
                outs, wall = run_pass(args.workload, prog, inputs, fans,
                                      workdir)
            metrics = tr.layer_metrics(tracer)
            metrics["cli.trace_bytes"] = sum(len(o.trace) for o in outs)
            layer_runs.append(metrics)
            traced_walls.append(wall)
            last_tracer = tracer
        else:
            fans = [prog.cli.parse_fan(i.text) for i in inputs]
            refs.append(time_reference())
            outs, wall = run_pass(args.workload, prog, inputs, fans, workdir)
            walls.append(wall)
            per_input.append([o.seconds for o in outs])
            steps.add(sum(o.steps for o in outs))
        timed += wall
        attempted += len(outs)
        failed += check_pass(args.workload, outs, pinned)
        del outs, fans

    if args.trace:
        out = {name: statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
        out["trace.overhead_s"] = REFERENCE_S * (
            statistics.median(w / r for w, r in zip(traced_walls, traced_refs))
            - statistics.median(w / r for w, r in zip(walls, refs)))
        report_spans(args.workload, last_tracer)
        metrics = declared("per_layer", out)
    else:
        if len(steps) != 1:
            failed += 1
            print(f"FAIL {args.workload}: step totals differ between "
                  f"passes: {sorted(steps)}", file=sys.stderr)
        scale = [REFERENCE_S / r for r in refs]
        wall = statistics.median(w * k for w, k in zip(walls, scale))
        total_steps = max(steps)
        values = {
            "wall_norm_s": wall,
            # The slowest input by its median time over passes.
            "worst_input_norm_s": max(
                statistics.median(times[i] * k
                                  for times, k in zip(per_input, scale))
                for i in range(len(inputs))),
            "steps_per_norm_s": total_steps / wall,
            "steps": total_steps,
            "setup_s": statistics.median(setups) * REFERENCE_S / setup_ref,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = declared("end_to_end", values)
        print(f"{args.workload}: {len(walls)} passes; raw pass seconds "
              f"(quartiles) {quartiles(walls)}; reference seconds "
              f"{quartiles(refs)}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def declared(kind: str, values: dict) -> dict:
    """`values` keyed and unit-labelled as BENCHMARK.json lists them."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as err:
        raise LoadError(str(err)) from err
    names = [m["name"] for m in spec[kind]]
    if set(names) != set(values):
        raise LoadError(f"{kind} metrics {sorted(values)} do not match "
                        f"BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[kind]}


def quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.3f}"
    q = statistics.quantiles(values, n=4)
    return " / ".join(f"{x:.3f}" for x in q)


def report_spans(workload: str, tracer: tr.Tracer) -> None:
    """Write the last traced pass's spans and list the heaviest names."""
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}.tsv"
    tracer.write_tsv(path)
    table = sorted(tracer.by_name().items(), key=lambda kv: -kv[1][1])
    print(f"{workload}: {len(tracer)} spans written to {path}; "
          "heaviest self times:", file=sys.stderr)
    for name, (calls, secs) in table[:12]:
        print(f"  {name:45s} {calls:9d} calls {secs:9.4f} s",
              file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process, one row each."""
    code = 0
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:12s} exit code {proc.returncode}")
            code = code or proc.returncode or 1
            continue
        doc = json.loads(lines[-1])
        cells = [f"{name}={m['value']:.6g} {m['unit']}"
                 for name, m in doc["metrics"].items()]
        print(f"{workload:12s} failed={doc['failed']}/{doc['attempted']}  "
              + "  ".join(cells))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark destackify on one workload.")
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workdir = ROOT / ".bench_build" / "perfbench" / \
        f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        sys.pycache_prefix = str(workdir / "pycache")
        result = measure(args, workdir)
    except LoadError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
