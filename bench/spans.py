"""Spans for the traced benchmark run, recorded from outside finset.

``Tracer.install`` replaces public finset functions by timing wrappers in
every finset module that holds them, so the names that ``analysis``,
``ultra``, ``transforms`` and ``cli`` import from ``metric`` are covered,
and it wraps the ``FiniteMetricSpace.validate`` method.  A span is a name,
a start, an end and the index of the enclosing span; spans stay in memory
until the run writes them out.  Nothing under ``src/`` changes.

``per_layer`` turns the spans and counters of the set-up phase and of the
rounds into the per-layer metrics.  Times named ``*_s`` include the spans
nested inside; ``*_self_s`` subtract them.  ``transforms.qh_peak_rss_mb`` is
the resident memory that one ``check_induced_qh`` call adds at its peak,
sampled by ``RssPeak`` (Linux only: it reads /proc/self/statm).
"""

from __future__ import annotations

import csv
import gzip
import os
import threading
import time

PAGE = os.sysconf("SC_PAGE_SIZE")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patched = []

    def _parent(self):
        return self._stack[-1] if self._stack else -1

    def record(self, name, start, end):
        """Add a span measured elsewhere, such as the import of finset."""
        self.spans.append((name, start, end, self._parent()))

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def take_counters(self):
        counters, self.counters = self.counters, {}
        return counters

    def wrap(self, func, name, note=None):
        """``func`` timed as span ``name``; ``note(tracer, idx, result)``
        may rename the span or count what the result reports."""
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._parent()
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self.spans[idx] = (name, start, time.perf_counter(), parent)
                self._stack.pop()
            if note is not None:
                note(self, idx, result)
            return result
        return traced

    def install(self, modules, targets, methods=()):
        """Wrap each target function wherever a module holds it.

        ``targets`` maps a function to (span name, note), or to (span name,
        note, body) when the span should time ``body`` in its place;
        ``methods`` lists (class, attribute, span name) triples.
        """
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in targets:
                    name, note, *body = targets[value]
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self.wrap(body[0] if body else value, name, note))
        for cls, attr, name in methods:
            original = vars(cls)[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summarize(self, lo, hi, outer_prefix):
        """Per span name over spans lo..hi-1: calls, total time, self time;
        and the total time of spans named ``outer_prefix*`` that are not
        nested in another such span."""
        calls, total, self_time = {}, {}, {}
        outer = 0.0
        for name, start, end, parent in self.spans[lo:hi]:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur
            if parent >= lo:
                up = self.spans[parent][0]
                self_time[up] = self_time.get(up, 0.0) - dur
            if name.startswith(outer_prefix):
                while parent >= 0 and not self.spans[parent][0].startswith(outer_prefix):
                    parent = self.spans[parent][3]
                if parent < 0:
                    outer += dur
        return calls, total, self_time, outer

    def write(self, path):
        """Write every span as a gzipped CSV row: name, start, end, parent."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_s", "end_s", "parent"))
            for name, start, end, parent in self.spans:
                out.writerow((name, repr(start), repr(end), parent))


class RssPeak:
    """Resident memory that a block adds at its peak, above the level at
    entry.  A thread samples /proc/self/statm every millisecond while the
    block runs; unlike ``ru_maxrss`` this leaves out what the process held
    before the block."""

    def __enter__(self):
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(0.001):
            self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())

    @property
    def added_mb(self):
        return (self.peak - self.base) / 2.0 ** 20


def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE


def _with_rss_peak(func, tracer, key):
    """``func``, keeping in ``tracer.counters[key]`` the most memory any one
    call has added at its peak."""
    def measured(*args, **kwargs):
        with RssPeak() as peak:
            result = func(*args, **kwargs)
        tracer.counters[key] = max(tracer.counters.get(key, 0.0), peak.added_mb)
        return result
    return measured


def _note_constant(tracer, idx, rep):
    tracer.spans[idx] = ("analysis." + rep.mode,) + tracer.spans[idx][1:]
    tracer.count("analysis.%s_pairs" % rep.mode, rep.pairs_examined)


def install_finset(tracer):
    """Wrap the public finset functions whose spans the per-layer metrics use."""
    import finset
    from finset import analysis, cli, generators, line, metric, transforms, ultra

    def counted(key, measure):
        return lambda tracer, idx, result: tracer.count(key, measure(result))

    targets = {
        metric.hausdorff: ("metric.hausdorff", None),
        metric.enumerate_fsets: ("metric.enumerate_fsets", counted("metric.sets", len)),
        analysis.estimate_constant: ("analysis.estimate_constant", _note_constant),
        analysis.lipschitz_obstruction_witness: (
            "analysis.witness", counted("analysis.chain_len", lambda w: len(w.chain))),
        analysis.validate_obstruction_witness: ("analysis.witness_validate", None),
        analysis.quasiconvexity_constant: ("analysis.qc", None),
        ultra.validate_ultrametric: ("ultra.validate", None),
        ultra.subdominant_ultrametric: ("ultra.subdominant", None),
        ultra.disconnection_constant: ("ultra.disconnection", None),
        ultra.build_centers: ("ultra.build_centers",
                              counted("ultra.levels", lambda fam: len(fam.levels))),
        ultra.verify_center_family: ("ultra.verify_centers", None),
        transforms.check_induced_qh: (
            "transforms.qh_check", counted("transforms.qh_quadruples", lambda r: r.quadruples),
            _with_rss_peak(transforms.check_induced_qh, tracer, "transforms.qh_peak_rss_mb")),
        transforms.estimate_qh_modulus: ("transforms.modulus", None),
        transforms.apply_transform: ("transforms.apply", None),
        cli.run: ("cli.run", None),
    }
    # the generators that the workloads' set-up reaches
    for name in ("harmonic_space", "parabola_space", "rickman_rug", "dendrogram_space",
                 "random_dendrogram", "generate"):
        targets[getattr(generators, name)] = ("generators." + name, None)
    modules = (finset, metric, line, analysis, ultra, transforms, generators, cli)
    tracer.install(modules, targets,
                   [(metric.FiniteMetricSpace, "validate", "metric.validate")])


def _per(value, count, scale):
    return value / count * scale if count else 0.0


def per_layer(tracer, setup_end, setup_counters, round_counters, rounds, cert_s):
    """The per-layer metrics: set-up figures once, round figures per round."""
    _, setup_total, _, generate_s = tracer.summarize(0, setup_end, "generators.")
    calls, total, self_time, _ = tracer.summarize(setup_end, len(tracer.spans), "generators.")
    def r(value):
        return value / rounds

    exhaustive_pairs = round_counters.get("analysis.exhaustive_pairs", 0)
    sampled_pairs = round_counters.get("analysis.sampled_pairs", 0)
    # the map passed as f is the only traced call inside an exhaustive
    # search, so its self time is the search time minus the map time
    kernel_s = self_time.get("analysis.exhaustive", 0.0)
    metrics = {
        "init.import_s": (setup_total.get("init.import", 0.0), "s"),
        "generators.generate_s": (generate_s, "s"),
        "metric.enumerate_s": (setup_total.get("metric.enumerate_fsets", 0.0), "s"),
        "metric.sets": (setup_counters.get("metric.sets", 0), "count"),
        "analysis.exhaustive_s": (r(total.get("analysis.exhaustive", 0.0)), "s"),
        "analysis.exhaustive_pairs": (r(exhaustive_pairs), "count"),
        "analysis.exhaustive_ns_per_pair": (_per(kernel_s, exhaustive_pairs, 1e9), "ns"),
        "line.map_calls": (r(calls.get("line.map", 0)), "count"),
        "line.map_us_per_call": (_per(total.get("line.map", 0.0),
                                      calls.get("line.map", 0), 1e6), "us"),
        "analysis.sampled_s": (r(total.get("analysis.sampled", 0.0)), "s"),
        "analysis.sampled_pairs": (r(sampled_pairs), "count"),
        "analysis.sampled_us_per_pair": (_per(total.get("analysis.sampled", 0.0),
                                              sampled_pairs, 1e6), "us"),
        "analysis.witness_s": (r(total.get("analysis.witness", 0.0)), "s"),
        "analysis.witness_validate_s": (r(total.get("analysis.witness_validate", 0.0)), "s"),
        "analysis.chain_len": (r(round_counters.get("analysis.chain_len", 0)), "count"),
        "analysis.qc_s": (r(total.get("analysis.qc", 0.0)), "s"),
        "metric.hausdorff_calls": (r(calls.get("metric.hausdorff", 0)), "count"),
        "metric.hausdorff_us_per_call": (_per(total.get("metric.hausdorff", 0.0),
                                              calls.get("metric.hausdorff", 0), 1e6), "us"),
        "cli.commands": (r(calls.get("cli.run", 0)), "count"),
        "cli.self_s": (r(self_time.get("cli.run", 0.0)), "s"),
        "ultra.validate_s": (r(total.get("ultra.validate", 0.0)), "s"),
        "ultra.subdominant_s": (r(total.get("ultra.subdominant", 0.0)), "s"),
        "ultra.disconnection_s": (r(total.get("ultra.disconnection", 0.0)), "s"),
        "ultra.build_centers_self_s": (r(self_time.get("ultra.build_centers", 0.0)), "s"),
        "ultra.verify_centers_s": (r(total.get("ultra.verify_centers", 0.0)), "s"),
        "ultra.levels": (r(round_counters.get("ultra.levels", 0)), "count"),
        "ultra.map_us_per_call": (_per(total.get("ultra.map", 0.0),
                                       calls.get("ultra.map", 0), 1e6), "us"),
        "metric.validate_s": (r(total.get("metric.validate", 0.0)), "s"),
        "transforms.qh_check_s": (r(total.get("transforms.qh_check", 0.0)), "s"),
        "transforms.qh_quadruples": (r(round_counters.get("transforms.qh_quadruples", 0)),
                                     "count"),
        "transforms.qh_peak_rss_mb": (round_counters.get("transforms.qh_peak_rss_mb", 0.0),
                                      "MiB"),
        "transforms.modulus_s": (r(total.get("transforms.modulus", 0.0)), "s"),
        "transforms.apply_s": (r(total.get("transforms.apply", 0.0)), "s"),
        "trace.cert_s": (cert_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
