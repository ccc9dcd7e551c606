"""Layered benchmark for stochadd.

    python3 perfbench/run.py --workload operator --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs in child processes, one
at a time: ``SETUP_SAMPLES - 1`` children that only set up (imports, inputs,
one untimed warm-up pass), then one child that also repeats the workload's
pass for ``--seconds``.  Every pass is checked (see checks.py); a pass fails on
an exception or a failed check.  A fixed reference kernel doing the pass's
kind of work is timed before and after every pass, and pass times are
reported as multiples of the mean of the two (unit ``ref``); wall seconds go
to the ``#`` lines.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from traced passes with ``--trace 1``.
``--workload all`` runs the four workloads in turn and prints one such line
for each.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("operator", "gallery", "spectrum", "verify")
SETUP_SAMPLES = 3
CHILD_TIMEOUT = 150  # seconds, well inside the 180 s a whole run may take
END_TO_END = {"setup_s": "s", "pass_ref.p50": "ref", "pass_ref.p75": "ref", "peak_rss_mb": "MB"}


def interpreter_reference() -> int:
    """Fixed pure-Python work: 60 000 dict stores, loads and integer operations."""
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    for i in range(60_000):
        table[i & 1023] = i
        acc += table[(i * 7) & 1023] % 13
    return acc


def vector_reference():
    """Fixed numpy work: 24 rounds of complex squaring and normalising over 2^16 points."""
    import numpy as np

    z = np.exp(1j * np.linspace(0.0, 6.0, 1 << 16))
    for _ in range(24):
        z = z * z
        z = z / np.abs(z)
    return z


# The host's speed drifts by up to 2x over tens of seconds, while a pass's time
# over the time of fixed work of the same kind holds within a few percent.  So
# pass times are reported in units of a reference kernel ("ref") timed before
# and after every pass: interpreted Python, or numpy for the vectorised render.
REFERENCES = {"interpreter": interpreter_reference, "vector": vector_reference}


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Only julia.render starts threads (2); BLAS calls stay on one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(role: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload} {role} child exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_pass"] - started
    return result


def run_workload(args) -> dict:
    if args.trace:
        measured = run_child("measure", args)
        metrics = {name: {"value": measured["layers"][name], "unit": unit}
                   for name, unit in measured["layer_units"].items()}
        print(f"# {args.workload} traced: pass_s.p50={measured['pass_p50']:.6f} s "
              f"pass_ref.p50={measured['ratio_p50']:.4f} ref over {measured['attempted']} "
              f"passes, trace in {measured['trace_file']}")
    else:
        setups = [run_child("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        measured = run_child("measure", args)
        setups.append(measured["setup_s"])
        values = {"setup_s": statistics.median(setups),
                  "pass_ref.p50": measured["ratio_p50"],
                  "pass_ref.p75": measured["ratio_p75"],
                  "peak_rss_mb": measured["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"# {args.workload}: {measured['attempted']} passes, {measured['failed']} failed, "
              f"{measured['borderline']} borderline cases counted; wall pass_s.p50="
              f"{measured['pass_p50']:.6f} pass_s.p75={measured['pass_p75']:.6f} "
              f"ref_s.p50={measured['ref_p50']:.6f}; setups {setups}")
    for error in measured["errors"]:
        print(f"# failed pass: {error}")
    return {"correct": measured["correct"], "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# Child process
# ---------------------------------------------------------------------------


def child_main(args) -> None:
    import resource
    import tempfile

    import stochadd

    if ROOT / "src" not in Path(stochadd.__file__).resolve().parents:
        raise SystemExit(f"stochadd imported from {stochadd.__file__}, not from this checkout")
    import checks
    import tracing
    from workloads import WORKLOADS as CLASSES

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = CLASSES[args.workload](args.seed, Path(workdir))
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        workload.run(tracer)  # warm-up: fills caches, output unchecked
        gc.collect()
        first = time.monotonic()
        if args.role == "setup":
            print(json.dumps({"first_pass": first}))
            return

        reference = REFERENCES[workload.REFERENCE]
        times, refs, ratios, layers, errors = [], [], [], [], []
        failed = incorrect = borderline = 0
        ref = timed(reference)
        while True:
            if tracer is not None:
                tracer.begin_pass()
            start = time.perf_counter()
            try:
                outputs = workload.run(tracer)
            except Exception as exc:  # a pass fails on any exception; the run goes on
                outputs, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                layers.append(tracer.end_pass())
            if outputs is not None:
                try:
                    borderline += workload.check(outputs)
                    error = None
                except checks.CheckFailed as exc:
                    incorrect += 1
                    error = f"check failed: {exc}"
            del outputs
            gc.collect()  # every pass starts from the same heap; not timed
            ref_after = timed(reference)
            if error is None:
                times.append(elapsed)
                refs.append(ref)
                ratios.append(elapsed / (0.5 * (ref + ref_after)))
            else:
                failed += 1
                if error not in errors:
                    errors.append(error)
            ref = ref_after
            if time.monotonic() - first >= args.seconds:
                break
        attempted = len(times) + failed
        if not times:
            times, refs, ratios = [elapsed], [ref], [elapsed / ref]
        result = {"first_pass": first, "attempted": attempted, "failed": failed,
                  "correct": incorrect == 0, "errors": errors, "borderline": borderline,
                  "pass_p50": statistics.median(times), "pass_p75": p75(times),
                  "ref_p50": statistics.median(refs),
                  "ratio_p50": statistics.median(ratios), "ratio_p75": p75(ratios),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None:
            result["layers"] = {name: statistics.median(row[name] for row in layers)
                                for name in tracing.PER_LAYER}
            result["layer_units"] = tracing.PER_LAYER
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            with open(trace_file, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "units": tracing.PER_LAYER, "per_pass": layers,
                           "last_pass_spans": tracer.span_records()}, fh)
            result["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(result))


def p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role:
        child_main(args)
        return 0
    if not (ROOT / "src" / "stochadd" / "__init__.py").is_file():
        print(f"error: no stochadd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        sys.stdout.flush()
        print(json.dumps(run_workload(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
