"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is the import of the program, building (or loading) the inputs,
and, for the simulation workloads, ``validate_scenario``.  The last line
printed holds two numbers: the seconds the set-up took, and the mean
time of the reference kernel (see ``gauge.py``) over passes made during
and right after it, from which ``run.py`` scales the set-up to the
reference CPU speed.  ``run.py`` starts this several times per run and
reports the median.

    python3 perfbench/setup_probe.py --workload demo --seed 0
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402

import gauge  # noqa: E402  (numpy: part of the set-up)

# Set-up takes well under a second, so the gauge samples it more often
# than an operation, and a few passes after it add to the sample.
PERIOD_S = 0.02
PASSES_AFTER = 10


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    before = perf_counter() - T0
    with gauge.SpeedGauge(period=PERIOD_S) as g:
        import workloads

        workloads.WORKLOADS[args.workload].build(args.seed)
    g.samples += [gauge.time_kernel() for _ in range(PASSES_AFTER)]
    print(repr(before + g.work_s), repr(g.kernel_s()))


if __name__ == "__main__":
    main()
