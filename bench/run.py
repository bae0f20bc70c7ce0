"""Certificate benchmark for finset.

Run from the root of a checkout:

    python3 bench/run.py --workload harmonic-exhaustive --seed 1 --seconds 15 --trace 0

One run builds the inputs of one workload from ``--seed``, then repeats
whole rounds, each of which produces and checks every certificate of the
workload, until ``--seconds`` have passed.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:

    setup_s      median over fresh processes of the time from process start
                 until the inputs are ready (import, generators, domains)
    cert_s       wall time to produce and check every certificate once, each
                 certificate taken at its median over the rounds
    peak_rss_mb  peak resident memory of this process at the end of the run

With ``--trace 1`` finset's public functions are wrapped from outside and
the metrics are the per-layer ones of ``spans.per_layer``; the spans are
written to ``bench/results/``.  Each run also leaves a JSON record there.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
WORKLOADS = ("harmonic-exhaustive", "ultra-certify", "obstruction-cli", "qh-transport")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def monotonic():
    # CLOCK_MONOTONIC is one clock for every process of the machine, so a
    # child's reading can be set against the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_finset():
    """Import finset from the checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import finset
    if os.path.dirname(os.path.dirname(os.path.abspath(finset.__file__))) != SRC:
        sys.exit("bench: finset was imported from %s, not %s" % (finset.__file__, SRC))
    return finset


def setup_samples(workload, seed):
    """Time set-up in fresh processes, from spawn until the inputs are ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = monotonic()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if child.returncode != 0:
            sys.exit("bench: set-up failed:\n" + child.stderr)
        samples.append(float(child.stdout.split()[-1]) - start)
    return samples


def run_rounds(certs, seconds, checking):
    """Whole rounds of every certificate until ``seconds`` have passed.

    Returns the wall times of each certificate and of its checks, one per
    round in which it passed, and the counts of certificates attempted and
    failed.  A certificate fails if it raises, a failed check included.
    ``checking.total`` is the time spent in checks so far.
    """
    times = {name: [] for name, _ in certs}
    check_times = {name: [] for name, _ in certs}
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for name, certify in certs:
            attempted += 1
            checked = checking.total
            t0 = time.perf_counter()
            try:
                certify()
            except Exception as exc:
                failed += 1
                print("bench: %s failed: %s: %s" % (name, type(exc).__name__, exc),
                      file=sys.stderr)
                continue
            times[name].append(time.perf_counter() - t0)
            check_times[name].append(checking.total - checked)
    return times, check_times, attempted, failed


def machine():
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the clock and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finset", "__init__.py")):
        sys.exit("bench: no finset sources under %s" % SRC)

    if args.setup_only:
        import_finset()
        import inputs
        inputs.setup(args.workload, args.seed)
        print(repr(monotonic()))
        return 0

    os.makedirs(RESULTS, exist_ok=True)
    setup_s = None if args.trace else setup_samples(args.workload, args.seed)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    t0 = time.perf_counter()
    import_finset()
    t1 = time.perf_counter()
    import inputs
    import workloads
    if tracer:
        tracer.record("init.import", t0, t1)
        spans.install_finset(tracer)
    data = inputs.setup(args.workload, args.seed)
    if tracer:
        setup_end = len(tracer.spans)
        setup_counters = tracer.take_counters()

    def wrap(f, name):
        return tracer.wrap(f, name) if tracer else f

    with tempfile.TemporaryDirectory(dir=RESULTS) as out_dir:
        certs = workloads.certificates(args.workload, data, wrap, out_dir)
        times, check_times, attempted, failed = run_rounds(certs, args.seconds,
                                                                workloads.checking)
    # each certificate's median over the rounds, so that a burst of load on
    # the machine during one certificate does not move the whole figure; a
    # run with a failed certificate is not correct, whatever its times
    cert_s = sum(statistics.median(t) for t in times.values() if t)
    check_s = sum(statistics.median(t) for t in check_times.values() if t)
    rounds = attempted // len(certs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if tracer:
        tracer.uninstall()
        metrics = spans.per_layer(tracer, setup_end, setup_counters, tracer.take_counters(),
                                  rounds, cert_s)
        tracer.write(stem + "-spans.csv.gz")
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                   "cert_s": {"value": cert_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=rounds, check_s=check_s,
                  check_share=check_s / cert_s if cert_s else None,
                  certificate_s=times, certificate_check_s=check_times,
                  setup_samples_s=setup_s, peak_rss_mb=peak_rss_mb,
                  machine=machine())
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
