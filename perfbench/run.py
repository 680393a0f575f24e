"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload amer_book --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run.  The last line of stdout is one
JSON object; the full record (environment, checks, spans) goes to
``.perfbench_out/``.  Exits 1 when an output check fails and 2 when the
package cannot be found.
"""

from __future__ import annotations

import os

# one thread in every native library, before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "MELLIN_PRICER_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import json
import platform
import socket
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5

# Runs in a fresh interpreter: the set-up a user pays, import plus one
# operation on a market outside the run; harness imports are not counted.
_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import mellin_pricer
t1 = time.perf_counter()
import workloads
sizes = workloads.Sizes(**json.loads(sys.argv[2]))
wl = workloads.WORKLOADS[sys.argv[1]](0, sizes)
t2 = time.perf_counter()
wl.warmup()
t3 = time.perf_counter()
print(json.dumps((t1 - t0) + (t3 - t2)))
"""


def setup_samples(name, sizes, reps):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = []
    import speed
    for _ in range(reps):
        k0 = speed.kernel_seconds()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, name,
             json.dumps(dataclasses.asdict(sizes))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True)
        k1 = speed.kernel_seconds()
        raw = float(proc.stdout.strip().splitlines()[-1])
        out.append((raw, 0.5 * (k0 + k1)))
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args):
    import numpy
    import scipy
    return {
        "host": socket.gethostname(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "threads": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "MELLIN_PRICER_THREADS")},
    }


def run(name, seed, seconds, trace, sizes, setup_reps=SETUP_REPS,
        max_books=None):
    """One run; returns (result line, full record)."""
    import speed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, sizes)
    wl.warmup()
    setup_raw = setup_samples(name, sizes, setup_reps) if not trace else []
    setup = [t * speed.NOMINAL_KERNEL_S / k for t, k in setup_raw]
    tracer = tracing.Tracer() if trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        books, book_times, pauses = workloads.run_loop(wl, seconds, tracer,
                                                       max_books)
    report = {"peak_rss_mb": workloads.peak_rss_mb()}
    wl.check(books, report)

    ops = [op for b in books for op in b]
    if trace:
        metrics = workloads.traced_layers(books, tracer, pauses)
    else:
        metrics = workloads.end_to_end(books, book_times, report, setup)
    failed = [op for op in ops if not op.ok]
    correct = (not any(op.check_failed for op in ops)
               and "anchor_failed" not in report)
    result = {
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "result": result, "report": report,
        "setup_raw_s_and_kernel_s": setup_raw, "book_s": book_times,
        "ops": [[op.kind, op.label, op.seconds, op.error, op.check_failed,
                 workloads.describe(op), op.kernel, op.refused] for op in ops],
        "spans": tracing.span_records(tracer.spans) if tracer else [],
        "speed_pauses": pauses,
    }
    return result, record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "mellin_pricer" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import mellin_pricer
    if SRC not in Path(mellin_pricer.__file__).resolve().parents:
        print("error: mellin_pricer was not imported from this checkout",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}")

    env = environment(args)
    result, record = run(args.workload, args.seed, args.seconds, args.trace,
                         workloads.FULL)
    record["env"] = env
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print("# env " + json.dumps(env))
    for op in record["ops"]:
        if op[3] or op[4]:
            print(f"# failed {op[0]} {op[1]} {op[5]}: {op[3] or op[4]}")
        if op[7]:
            print(f"# refused, then re-priced on the fallback grid: "
                  f"{op[0]} {op[1]} {op[5]}: {op[7]}")
    if "greek_fd_rel_gap" in record["report"]:
        print("# greek_fd_rel_gap " + json.dumps(record["report"]["greek_fd_rel_gap"]))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
