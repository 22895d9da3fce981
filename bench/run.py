"""circmaxent benchmark runner.

    python3 bench/run.py --workload short_period --seed 1 --seconds 40 --trace 0

Builds the workload's instances from ``--seed``, sets up (import, instance
generation, problem files, one untimed warm-up op) several times, then runs
ops in a closed loop -- one caller, the next op starts when the last one
has returned -- until ``--seconds`` have passed.  Every op's output is
checked with numpy-only code (``oracle.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, once with every public function of the package wrapped in a span
recorder and once untraced, and prints the per-layer metrics and the
tracing overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the per-op rows, the
environment and the full metric set go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("short_period", "long_period", "cli_mixed")
SETUP_REPEATS = 3


def _import_program():
    """Import the package from this checkout's ``src``; None if it is absent."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import circmaxent
        import circmaxent.cli
    except ImportError as exc:
        print(f"error: cannot import circmaxent from {src}: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(circmaxent.__file__).startswith(src + os.sep):
        print(f"error: circmaxent imported from {circmaxent.__file__}, not {src}", file=sys.stderr)
        return None
    return circmaxent


def run_loop(ops, seconds: float, tracer=None) -> tuple:
    """Closed loop over ``ops`` in order (cycling) for ``seconds`` of wall
    time; at least one op always runs.  Returns (records, untraced times)
    with one record (op, seconds, outcome) per op.

    With a tracer every op runs twice, traced and untraced, alternating
    which goes first; the untraced times give the tracing overhead on
    exactly the same work.
    """
    records, plain = [], []
    deadline = perf_counter() + seconds
    while True:
        op = ops[len(records) % len(ops)]
        if tracer is None:
            dt, outcome = op.run()
        else:
            untraced_first = len(records) % 2 == 1
            if untraced_first:
                plain.append(op.run()[0])
            tracer.current_op = len(records)
            tracer.install()
            try:
                dt, outcome = op.run()
            finally:
                tracer.uninstall()
            if not untraced_first:
                plain.append(op.run()[0])
        records.append((op, dt, outcome))
        if perf_counter() >= deadline:
            return records, plain


def end_to_end(records, setup_s: float) -> dict:
    import numpy as np

    times = np.array([dt for _, dt, _ in records])
    answered = sum(o.answered for *_, o in records)
    p50, p90 = np.percentile(times, [50, 90])
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (float(p50), "s"),
        "op_s.p90": (float(p90), "s"),
        "ops_per_s": (len(times) / float(times.sum()), "1/s"),
        "answered_frac": (answered / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(agg: dict, records, overhead: float) -> dict:
    k = len(records)
    counts = agg["counts"]

    def named(name, key):
        return agg.get(name, {}).get(key, 0.0) / k

    iterations = counts.get("solver.solve.iterations", 0.0)
    evals = agg.get("solver._objective", {}).get("calls", 0)
    rows = [o.row for *_, o in records]
    out = {
        "solver.iterations": (iterations / k, "count/op"),
        "solver.backtracks": (counts.get("solver.solve.backtracks", 0.0) / k, "count/op"),
        "solver.evals": (evals / k, "count/op"),
        "solver.accept_ratio": (iterations / evals if evals else 0.0, "ratio"),
        "solver.self_s": (named("solver", "self_s") - named("solver.verify_solution", "self_s"), "s/op"),
        "solver.verify_s": (named("solver.verify_solution", "s"), "s/op"),
        "blockcirc.self_s": (named("blockcirc", "self_s"), "s/op"),
    }
    for fn in ("dft_spectrum", "circ_logdet", "circ_inverse", "project_band_gram"):
        out[f"blockcirc.{fn}.calls"] = (named(f"blockcirc.{fn}", "calls"), "count/op")
        out[f"blockcirc.{fn}.s"] = (named(f"blockcirc.{fn}", "s"), "s/op")
    out.update({
        "blockcirc.freq_block_bytes": (counts.get("blockcirc.dft_spectrum.freq_block_bytes", 0.0) / k, "B/op"),
        "toeplitz.calls": (named("toeplitz", "calls"), "count/op"),
        "toeplitz.s": (named("toeplitz", "s"), "s/op"),
        "cli.self_s": (named("cli", "self_s"), "s/op"),
        "cli.bytes_in": (sum(r.get("bytes_in", 0) for r in rows) / k, "B/op"),
        "cli.bytes_out": (sum(r.get("bytes_out", 0) for r in rows) / k, "B/op"),
        "feasibility.calls": (named("feasibility", "calls"), "count/op"),
        "feasibility.s": (named("feasibility", "s"), "s/op"),
        "ips.cycles": ((counts.get("ips.ips_solve.cycles", 0.0) + counts.get("ips.sk1_solve.cycles", 0.0)) / k,
                       "count/op"),
        "ips.s": (named("ips", "s"), "s/op"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return out


def op_rows(records, workload: str, seed: int) -> list:
    rows = []
    for i, (op, dt, outcome) in enumerate(records):
        row = {"workload": workload, "seed": seed, "op": i, "kind": op.kind, "m": op.m, "n": op.n, "N": op.N,
               "command": op.command, "seconds": dt, "answered": outcome.answered, "wrong": outcome.wrong}
        row.update(outcome.row)
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of instances (smoke test)")
    args = parser.parse_args(argv)

    import machine

    thread_cap = machine.cap_threads()  # before numpy is imported
    t0 = perf_counter()
    cm = _import_program()
    if cm is None:
        return 2
    import_s = perf_counter() - t0

    import numpy as np

    import spans
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            ops = workloads.build(args.workload, cm, args.seed, workdir, smoke=args.smoke)
            ops[0].run()  # untimed warm-up op
            setups.append(perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            tracer = spans.Tracer()
            records, plain = run_loop(ops, args.seconds, tracer)
            traced_s = sum(dt for _, dt, _ in records)
            # relative drop in ops_per_s: 1 - (K / traced_s) / (K / plain_s)
            overhead = 1.0 - sum(plain) / traced_s
            agg = tracer.aggregate()
            metrics = per_layer(agg, records, overhead)
            os.makedirs(OUT_DIR, exist_ok=True)
            np.savez(os.path.join(OUT_DIR, f"{args.workload}.spans.npz"), **tracer.arrays())
            extra = {"spans": {k: v for k, v in agg.items() if k != "counts"}, "counts": agg["counts"]}
        else:
            records, _ = run_loop(ops, args.seconds)
            metrics = end_to_end(records, setup_s)
            extra = {"setup_runs_s": setups, "import_s": import_s}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(o.wrong for *_, o in records)
    unanswered = sum(not o.answered and not o.wrong for *_, o in records)
    printed = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(records),
        "wrong": failed,
        "unanswered": unanswered,
        "fail_frac": (failed + unanswered) / len(records),
        "env": machine.describe(thread_cap),
        "metrics": printed,
        **extra,
        "rows": op_rows(records, args.workload, args.seed),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(summary, fh, indent=1, default=float)

    print(f"{args.workload} seed={args.seed} ops={len(records)} wrong={failed} unanswered={unanswered} "
          f"fail_frac={summary['fail_frac']:.4f} rows={os.path.relpath(result_path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
