"""Run one ``resperf`` command in this process with spans around its layers.

Usage: python3 bench/trace_child.py SPANS.npz RUN_ID COMMAND [ARGS...]

The public functions listed in ``TRACED`` are wrapped, and each wrapper is
patched over the name in every ``resperf`` module that imports it.  Every
call records a span (name, start, end, parent span) in memory; cyclic-GC
pauses, seen through ``gc.callbacks``, become spans too.  The spans, the
run id and a few counters are written to SPANS.npz when the command ends,
and the process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import gc
import logging
import sys
import time

# (module, attribute); "Class.method" patches the method on the class.
TRACED = (
    ("resperf.corpus", "ingest_roster"),
    ("resperf.corpus", "ingest_publications"),
    ("resperf.corpus", "Corpus.__init__"),
    ("resperf.corpus", "Corpus.authored_by"),
    ("resperf.credit", "fractional_contribution"),
    ("resperf.indicators", "build_scaling_table"),
    ("resperf.indicators", "compute_scores"),
    ("resperf.cohort", "cohort_percentiles"),
    ("resperf.pipeline", "run_scoring"),
    ("resperf.regress", "build_design"),
    ("resperf.regress", "collinearity_check"),
    ("resperf.regress", "fit_fractional_logit"),
    ("resperf.regress", "average_marginal_effects"),
    ("resperf.sim", "generate_cohort"),
    ("resperf.report", "regression_table"),
    ("resperf.report", "descriptive_table"),
    ("resperf.report", "distribution_histogram"),
    ("resperf.report", "histogram_csv"),
    ("resperf.report", "coefficient_of_variation"),
    ("resperf.report", "group_coefficient_of_variation"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = [-1]
        self.counters = {"regress.newton_iters": 0, "indicators.log_records": 0}
        self._gc_start = 0.0

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add(self, name: str, start: float, end: float) -> None:
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self.stack[-1])

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        clock = time.perf_counter
        names, starts, ends, parents, stack = (self.name, self.start, self.end,
                                               self.parent, self.stack)
        counters = self.counters
        newton = name == "regress.fit_fractional_logit"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if newton:
                counters["regress.newton_iters"] += result.n_iter
            return result
        return traced

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.add("gc", self._gc_start, time.perf_counter())

    def filter(self, record) -> bool:
        self.counters["indicators.log_records"] += 1
        return True

    def install(self) -> None:
        for module_name, attr in TRACED:
            module = sys.modules[module_name]
            span = f"{module_name.split('.')[1]}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(span, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, original)
            for name, mod in list(sys.modules.items()):
                if (name == "resperf" or name.startswith("resperf.")) and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
        gc.callbacks.append(self.on_gc)
        logging.getLogger("resperf.indicators").addFilter(self.filter)

    def save(self, path: str, run_id: str) -> None:
        import numpy as np  # after the timed import of resperf.cli, which loads it
        np.savez(path, names=np.array(self.names), name=np.array(self.name, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64), run_id=run_id,
                 counters=np.array(list(self.counters.values())),
                 counter_names=np.array(list(self.counters)))


def main() -> int:
    spans_path, run_id, command = sys.argv[1], sys.argv[2], sys.argv[3]
    tracer = Tracer()
    start = time.perf_counter()
    import resperf.cli
    tracer.add("cli.import", start, time.perf_counter())
    tracer.install()
    start = time.perf_counter()
    idx = len(tracer.start)
    tracer.add(f"cli.{command}", start, 0.0)
    tracer.stack.append(idx)
    try:
        resperf.cli.main(sys.argv[3:], prog_name="resperf")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    else:
        code = 0
    tracer.end[idx] = time.perf_counter()
    tracer.stack.pop()
    gc.callbacks.remove(tracer.on_gc)
    tracer.save(spans_path, run_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
