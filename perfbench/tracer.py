"""In-memory spans and counters around trustfuse's public functions.

The tracer swaps wrappers into the module attributes that the CLI and the
library look up at call time (for example `trustfuse.cli.load_instance`
and `trustfuse.learning.proximal_fit`), so nothing inside `src/` changes.
A function imported by name into several modules is replaced in each of
them. Wrappers are installed only for the duration of a traced job.

A span is (job, name, start, end, parent). Spans nest strictly because a
job runs on one thread, so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# cli is imported so that the names it imports from the library are loaded,
# found and swapped like any other module's.
from trustfuse import baselines, cli, instance, io, learning, model, optimizer  # noqa: F401

# Span name -> (defining module, attribute).
SPANNED = {
    "io.load_instance": (io, "load_instance"),
    "io.dump_json": (io, "dump_json"),
    "instance.from_triples": (instance.FusionInstance, "from_triples"),
    "optimizer.decide": (optimizer, "decide"),
    "optimizer.agreement_matrix": (optimizer, "agreement_matrix"),
    "optimizer.em_units": (optimizer, "em_units"),
    "learning.fit_erm_object": (learning, "fit_erm_object"),
    "learning.fit_em": (learning, "fit_em"),
    "learning.proximal_fit": (learning, "proximal_fit"),
    "model.candidate_scores": (model, "candidate_scores"),
    "model.posterior_all": (model, "posterior_all"),
    "model.argmax_with_ties": (model, "argmax_with_ties"),
    "baselines.majority_vote": (baselines, "majority_vote"),
    "baselines.counts_fit": (baselines, "counts_fit"),
    "baselines.counts_infer": (baselines, "counts_infer"),
}

# Cached index arrays of a FusionInstance, built on first use. Touching them
# right after load moves their build into one span instead of whichever
# layer happens to need them first.
INDEX_PROPERTIES = (
    "cand_counts",
    "cand_offsets",
    "obs_cand",
    "cand_object",
    "obs_counts",
    "_obs_by_object",
    "source_obs_counts",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter[tuple[int, str]] = Counter()
        self.objective: dict[int, float] = {}
        self.job = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((self.job, name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            job, _, start, _, _ = self.spans[idx]
            self.spans[idx] = (job, name, start, time.perf_counter(), parent)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.job, name] += n

    def times(self, job: int) -> tuple[Counter[str], Counter[str]]:
        """Seconds per span name within one job: (total, self)."""
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for j, name, start, end, parent in self.spans:
            if j != job:
                continue
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][1]] -= end - start
        return total, own

    def job_counts(self, job: int) -> Counter[str]:
        return Counter({name: n for (j, name), n in self.counts.items() if j == job})

    @contextmanager
    def job_span(self, job: int):
        """Trace one `fuse` job: install the wrappers, span the whole call."""
        self.job = job
        restore = self._install()
        try:
            with self.span("cli.fuse"):
                yield
        finally:
            for target, attr, original in reversed(restore):
                setattr(target, attr, original)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "learning.proximal_fit":
            return self._wrap_proximal_fit(fn)
        if name == "learning.fit_em":
            return self._wrap_fit_em(fn)
        if name == "io.load_instance":
            return self._wrap_load_instance(fn)

        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_load_instance(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("io.load_instance"):
                inst, truth = fn(*args, **kwargs)
            with self.span("instance.index"):
                for prop in INDEX_PROPERTIES:
                    getattr(inst, prop)
            return inst, truth

        return wrapper

    def _wrap_proximal_fit(self, fn):
        def wrapper(x0, fg, *args, **kwargs):
            def counted_fg(x):
                self.count("learning.fg_evals")
                return fg(x)

            self.count("learning.proximal_fit.calls")
            with self.span("learning.proximal_fit"):
                x, diag = fn(x0, counted_fg, *args, **kwargs)
            self.count("learning.iters", diag.iterations)
            self.count("learning.converged_calls", int(diag.converged))
            self.objective[self.job] = diag.objective
            return x, diag

        return wrapper

    def _wrap_fit_em(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("learning.fit_em"):
                w, table, diag = fn(*args, **kwargs)
            self.count("learning.em_outer_iters", diag.iterations)
            return w, table, diag

        return wrapper

    def _wrap_read_rows(self, fn):
        def wrapper(*args, **kwargs):
            header, rows = fn(*args, **kwargs)
            self.count("io.rows_read", len(rows))
            return header, rows

        return wrapper

    def _install(self) -> list[tuple[object, str, object]]:
        restore: list[tuple[object, str, object]] = []

        def swap(target, attr, new):
            restore.append((target, attr, vars(target)[attr]))
            setattr(target, attr, new)

        modules = [m for n, m in sys.modules.items() if n.startswith("trustfuse.")]
        for name, (owner, attr) in SPANNED.items():
            if isinstance(owner, type):
                # A classmethod: wrap the underlying function, rebind on the class.
                func = vars(owner)[attr].__func__
                wrapped = self._wrap(name, lambda *a, _f=func, _c=owner, **k: _f(_c, *a, **k))
                swap(owner, attr, staticmethod(wrapped))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        swap(m, key, wrapped)
        swap(io, "_read_rows", self._wrap_read_rows(io._read_rows))
        return restore
