"""Benchmark entry point.

    python3 perfbench/run.py --workload demo|plant8|verify|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  Inputs come from ``--seed`` alone.  With ``--trace 0`` the
run repeats the workload's operation for about ``--seconds`` seconds
and reports the end-to-end metrics; with ``--trace 1`` it runs the
operation once untraced and once traced on the same inputs and reports
the per-layer metrics and the tracing overhead.  With ``--trace 0`` the
operations of the CPU-bound workloads run under the CPU-speed gauge
(``gauge.py``), and their times are reported at the reference CPU
speed.  Every output is checked.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Output files, raw spans, the first-run digests and a
log of every result go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Thread pools are pinned before numpy loads: one BLAS thread and a
# one-worker suite pool, so pool threads x BLAS threads <= nproc on a
# 2-CPU machine, and the GIL-bound decay-envelope loop does not trade
# places with a second thread from run to run.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PLUGPLAY_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import gauge  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
FIRST_RUN_MISMATCH = "outputs differ from this source's first run on the same inputs"

END_TO_END = {
    "ref_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}
# The end-to-end figures every untraced run prints, "n/a" where the
# workload has none; only END_TO_END goes into the JSON result.
FIGURES = {
    "ref_wall_s": "s",
    "wall_s": "s",
    "setup_s": "s",
    "setup_wall_s": "s",
    "steps_per_s": "1/s",
    "output_s": "s",
    "peak_rss_mb": "MB",
    "suite.bass_s": "s",
    "suite.consensus_s": "s",
    "suite.theorem1_s": "s",
    "suite.appendix_s": "s",
    "state_err_ratio": "1",
    "flow_err_end": "1",
    "failed_frac": "1",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["demo", "plant8", "verify", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def source_digest() -> str:
    """sha256 of the program's source files: identifies the commit measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy
    from plugplay import suites

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0))
    pool = suites.thread_count()
    blas_threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "PLUGPLAY_THREADS": os.environ.get("PLUGPLAY_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "pool_x_blas_threads": pool * blas_threads,
        "threads_within_nproc": pool * blas_threads <= nproc,
    }


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Cold set-ups in SETUP_REPEATS fresh interpreters.

    Returns the wall times and the same times at the reference CPU speed.
    """
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        wall, kernel = map(float, proc.stdout.strip().splitlines()[-1].split())
        walls.append(wall)
        scaled.append(wall * gauge.REFERENCE_S / kernel)
    return walls, scaled


def op_seed(seed: int, k: int) -> int:
    """Seed of the k-th operation of a run; the first uses the run seed."""
    return seed + 100_000 * k


class DigestStore:
    """First-run digests per (source tree, workload, operation seed).

    A later run of the same source on the same inputs must reproduce the
    stored digest bit for bit.
    """

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def check(self, workload: str, seed: int, digest: str) -> bool:
        key = f"{self.source}/{workload}/{seed}"
        first = self.data.setdefault(key, digest)
        return first == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def run_op(wl, inputs, tag: str, context=None):
    """One operation; returns (outcome, wall seconds, seconds at the reference speed).

    With no ``context`` the operation of a CPU-bound workload runs under a
    :class:`gauge.SpeedGauge`, and its wall time excludes the gauge's
    kernel passes.  Otherwise it runs inside ``context`` (the tracer, or
    nothing) without the gauge, and both times are its wall time.
    """
    outdir = OUT / "ops" / tag
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        if context is None and wl.cpu_bound:
            with gauge.SpeedGauge() as g:
                outcome = wl.run(inputs, outdir)
            wall, scaled = g.work_s, g.scaled(g.work_s)
        else:
            t0 = perf_counter()
            with context if context is not None else contextlib.nullcontext():
                outcome = wl.run(inputs, outdir)
            wall = scaled = perf_counter() - t0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return outcome, wall, scaled


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "plugplay" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'plugplay'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup_walls, setup_times = ([], []) if args.trace else measure_setup(args.workload, args.seed)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    store = DigestStore(OUT / "digests.json", env["source_sha256"])
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"

    outcomes, walls, scaled, mismatched = [], [], [], []
    start = perf_counter()
    if args.trace:
        import tracer

        inputs = wl.build(args.seed)
        plain, plain_wall, _ = run_op(wl, inputs, tag, contextlib.nullcontext())
        tr = tracer.Tracer()
        traced, traced_wall, _ = run_op(wl, inputs, tag, tr)
        outcomes, walls = [plain, traced], [plain_wall, traced_wall]
        mismatched = [
            None if store.check(args.workload, args.seed, plain.digest) else FIRST_RUN_MISMATCH,
            None if traced.digest == plain.digest else "traced outputs differ from untraced outputs",
        ]
        layers = tracer.layer_metrics(tr)
        layers["trace.overhead_s"] = traced_wall - plain_wall
        tr.save(OUT / f"spans-{tag}.npz")
        units = dict(tracer.per_layer_names())
    else:
        k = 0
        while True:
            seed_k = op_seed(args.seed, k)
            outcome, wall, wall_ref = run_op(wl, wl.build(seed_k), tag)
            outcomes.append(outcome)
            walls.append(wall)
            scaled.append(wall_ref)
            same = store.check(args.workload, seed_k, outcome.digest)
            mismatched.append(None if same else FIRST_RUN_MISMATCH)
            k += 1
            if perf_counter() - start + statistics.median(walls) > args.seconds:
                break
        units = END_TO_END
    store.save()

    attempted = failed = 0
    wrong = []
    for o, mismatch in zip(outcomes, mismatched):
        if mismatch:
            o.wrong.append(mismatch)
        attempted += o.attempted
        failed += min(o.attempted, len(o.refused) + len(o.wrong))
        wrong += o.wrong

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(walls)} op(s) in {perf_counter() - start:.2f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for line in sorted({n for o in outcomes for n in o.notes}):
        print("note " + line)
    for line in sorted({r for o in outcomes for r in o.refused + o.wrong}):
        print("FAILED " + line)

    values: dict[str, list[float]] = {}
    for o in outcomes:
        for key, val in o.values.items():
            values.setdefault(key, []).append(val)
    report = {key: statistics.median(v) for key, v in sorted(values.items())}
    for key, val in report.items():
        print(f"value {key} {val:.6g} (median of {len(values[key])})")

    if not args.trace:
        print(f"samples ref_wall_s {len(walls)}, setup_s {len(setup_times)}")
        layers = {
            "ref_wall_s": statistics.median(scaled),
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "setup_wall_s": statistics.median(setup_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        figures = {**report, **layers, "failed_frac": failed / attempted}
        for name, unit in FIGURES.items():
            print(f"figure {name} " + (f"{figures[name]:.6g} {unit}" if name in figures else "n/a"))
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")

    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "env": env, "values": report, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
