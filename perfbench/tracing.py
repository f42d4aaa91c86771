"""Span recording for the traced benchmark run.

The tracer replaces public eisbasis functions by wrappers that record one
span per call: its name, start, end and the index of the span that was open
when it began.  Spans stay in memory until the workload ends, are written
out as JSON lines, and are reduced to per-layer self time afterwards.  A
span's self time is its duration minus the durations of its children; the
workloads are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from math import lcm

MODULES = ("eisbasis", "eisbasis.arith", "eisbasis.qseries", "eisbasis.eisenstein",
           "eisbasis.basis", "eisbasis.cli")

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` inside a span named `name`.  `before(*args)` and
        `after(result)` update counts inside a bookkeeping span, so their
        cost is charged to no layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                with self.span(BOOKKEEPING):
                    before(*args)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def rebind(original, replacement, owners) -> int:
    """Point every attribute of `owners` that is `original` at `replacement`;
    return how many bindings were replaced."""
    replaced = 0
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, replacement)
                replaced += 1
    return replaced


def _coefficient_bits(series_list) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for series in series_list for c in series.coeffs),
        default=0,
    )


def _cleared_bits(rows) -> int:
    """Bit size of the integer matrix left after each row of `rows` is
    multiplied by the lcm of its denominators."""
    bits = 0
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        bits = max(bits, max(abs(x.numerator * (den // x.denominator)).bit_length() for x in row))
    return bits


def install(tracer: Tracer):
    """Wrap the layer entry points of the imported eisbasis package.

    Every module binding of each function is replaced, including the
    `from .x import y` copies, so internal calls are traced as well as the
    benchmark's own.  Returns the original `eisenstein` function, whose
    `cache_info()` gives the cache hits.
    """
    modules = [sys.modules[name] for name in MODULES]
    arith, qseries, eisenstein_mod, basis, cli = modules[1:]
    QSeries, RatMatrix = qseries.QSeries, basis.RatMatrix
    cached = eisenstein_mod.eisenstein

    def mul_products(a, b):
        if isinstance(b, QSeries):
            n = min(a.precision, b.precision)
            tracer.add("qseries.mul.coeff_products", n * (n + 1) // 2)

    def built(result):
        tracer.peak("qseries.max_coeff_bits", _coefficient_bits(el.series for el in result.elements))

    def matrix_size(matrix):
        tracer.peak("basis.determinant.max_n", matrix.rows)
        tracer.peak("basis.determinant.max_bits", _cleared_bits(matrix.row_list()))

    functions = [
        (arith.sigma, "arith.sigma", None, None),
        (arith.bernoulli, "arith.bernoulli", None, None),
        (cached, "eisenstein", None, None),
        (eisenstein_mod.eisenstein_product, "eisenstein.product", None, None),
        (basis.new_basis, "basis.build.new_m", None, built),
        (basis.cusp_basis, "basis.build.new_s", None, built),
        (basis.classical_basis, "basis.build.classical", None, built),
        (basis.basis_for, "basis.basis_for", None, None),
        (basis.verify_report, "basis.verify_report", None, None),
        (basis.express, "basis.express", None, None),
        (cli.main, "cli.main", None, None),
    ]
    for original, name, before, after in functions:
        if not rebind(original, tracer.wrap(name, original, before, after), modules):
            raise RuntimeError(f"no binding of {name} found")
    methods = [
        (QSeries, "__mul__", "qseries.mul", mul_products),
        (QSeries, "__pow__", "qseries.pow", None),
        (QSeries, "__add__", "qseries.add", None),
        (RatMatrix, "determinant", "basis.determinant", matrix_size),
        (RatMatrix, "solve", "basis.solve", None),
    ]
    for cls, attr, name, before in methods:
        original = vars(cls)[attr]
        # __rmul__ is the same function object as __mul__, so both are rebound
        rebind(original, tracer.wrap(name, original, before), [cls])
    return cached


def self_times(spans) -> dict[str, tuple[float, float, int]]:
    """Per span name: (self seconds, inclusive seconds, calls).  Inclusive
    time of a name counts only its outermost spans, so recursion through
    the same name is not counted twice."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, [0.0, 0.0, 0])
        entry[0] += end - start - child_time[index]
        entry[2] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry[1] += end - start
    return {name: tuple(entry) for name, entry in totals.items()}


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]
