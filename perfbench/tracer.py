"""Spans and counters around padicops' public functions, installed from outside.

The tracer wraps each function named in ``SPANNED`` and rebinds every
``padicops.*`` module attribute that refers to it, because the modules
import by name (``crossed`` binds ``commutant``, ``reduction`` binds
``extract_block_coefficients``, ``cli`` binds several).  Methods are
replaced on their class.  Each call records a span (name, start, end,
parent) in memory; ``uninstall`` puts every original back.

Scalar arithmetic is too frequent for spans (millions of ops per pass),
so ``PadicScalar.__add__``/``__mul__``/``inverse`` only bump counters:
operand kinds are split into exact (both exact rationals), capped (both
capped) and mixed, and results are watched for "zero to precision" and
for the fewest tracked digits left.  Their time shows up in the self
time of the calling span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path inside the module)
SPANNED: list[tuple[str, str, str]] = [
    ("ultralinalg.matmul", "padicops.ultralinalg", "KMatrix.__matmul__"),
    ("ultralinalg.apply", "padicops.ultralinalg", "KMatrix.apply"),
    ("ultralinalg.echelon_insert", "padicops.ultralinalg", "Echelon.insert"),
    ("ultralinalg.algebra_span", "padicops.ultralinalg", "algebra_span"),
    ("ultralinalg.commutant", "padicops.ultralinalg", "commutant"),
    ("ultralinalg.center", "padicops.ultralinalg", "center"),
    ("charduals.group_init", "padicops.charduals", "TruncatedGroup.__init__"),
    ("charduals.fourier_analyze", "padicops.charduals", "fourier_analyze"),
    ("crossed.build_algebras", "padicops.crossed", "build_algebras"),
    ("crossed.matrix_blocks", "padicops.crossed", "matrix_blocks"),
    ("crossed.matrix_from_blocks", "padicops.crossed", "matrix_from_blocks"),
    ("crossed.extract_block_coefficients", "padicops.crossed", "extract_block_coefficients"),
    ("crossed.idempotent_check", "padicops.crossed", "idempotent_check"),
    ("crossed.verify_commutation_theorem", "padicops.crossed", "verify_commutation_theorem"),
    ("reduction.verify_crossed_reduction", "padicops.reduction", "verify_crossed_reduction"),
    ("reduction.reduce_algebra", "padicops.reduction", "reduce_algebra"),
    ("reduction.is_baer", "padicops.reduction", "is_baer"),
    ("reduction.classify_type", "padicops.reduction", "classify_type"),
    ("reduction.left_annihilator", "padicops.reduction", "left_annihilator"),
    ("fpalg.rref", "padicops.fpalg", "rref"),
    ("fpalg.nullspace", "padicops.fpalg", "nullspace"),
    ("spectral.multiplication_operator", "padicops.spectral", "multiplication_operator"),
    ("spectral.is_orthoprojection", "padicops.spectral", "is_orthoprojection"),
    ("spectral.normality_scan", "padicops.spectral", "normality_scan"),
]

SPAN_FIELDS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"))

# operand split, indexed by the number of exact operands
_KINDS = ("capped", "mixed", "exact")

OP_COUNTERS = [
    *(f"padic.{op}.{kind}" for op in ("add", "mul") for kind in ("exact", "capped", "mixed")),
    "padic.inverse.calls",
]

COUNTERS: list[tuple[str, str]] = [
    *((name, "count") for name in OP_COUNTERS),
    ("padic.zero_to_precision_results", "count"),
    ("padic.min_digits_left", "digits"),
    ("ultralinalg.echelon_insert.useful_ratio", "ratio"),
    ("reduction.is_baer.annihilators_distinct", "count"),
    ("reduction.left_annihilator.useful_ratio", "ratio"),
]


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so no instant is subtracted twice.
    """
    children = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        covered = 0.0
        run_start = run_end = None
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            s, e = max(starts[c], lo), min(ends[c], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append((hi - lo) - covered)
    return out


def outermost(names, parents) -> list[bool]:
    """True for spans with no ancestor of the same name (recursion counted once)."""
    out = []
    for i, name in enumerate(names):
        j = parents[i]
        while j >= 0 and names[j] != name:
            j = parents[j]
        out.append(j < 0)
    return out


class Tracer:
    """In-memory span recorder and scalar-op counters for one process."""

    def __init__(self, precision: int, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.min_digits = precision
        self._restore: list[tuple[object, str, object]] = []

    # ----- spans ------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """fn, recording a span per call; observe(result) sees each return."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return spanned

    def span_metrics(self) -> dict[str, float]:
        """<name>.calls, .self_s and .total_s for every name in SPANNED."""
        own = self_times(self.starts, self.ends, self.parents)
        top = outermost(self.names, self.parents)
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += own[i]
            if top[i]:
                total_s[name] += self.ends[i] - self.starts[i]
        out = {}
        for name, _, _ in SPANNED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
        return out

    def counter_metrics(self) -> dict[str, float]:
        c = self.counts
        out = {name: c[name] for name in OP_COUNTERS}
        out["padic.zero_to_precision_results"] = c["zero_results"]
        out["padic.min_digits_left"] = self.min_digits
        inserts = self.names.count("ultralinalg.echelon_insert")
        out["ultralinalg.echelon_insert.useful_ratio"] = c["echelon_useful"] / inserts if inserts else 0.0
        out["reduction.is_baer.annihilators_distinct"] = c["annihilators_distinct"]
        calls = self.names.count("reduction.left_annihilator")
        out["reduction.left_annihilator.useful_ratio"] = c["annihilators_distinct"] / calls if calls else 0.0
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: index,name,start_s,end_s,parent (-1 = root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{row[0]},{row[1]!r},{row[2]!r},{row[3]}\n")

    # ----- installation ----------------------------------------------

    def _observer(self, name: str):
        counts = self.counts
        if name == "ultralinalg.echelon_insert":
            def observe(raised_rank):
                counts["echelon_useful"] += bool(raised_rank)
            return observe
        if name == "reduction.is_baer":
            def observe(report):
                counts["annihilators_distinct"] += report.detail.get("annihilators_tested", 0)
            return observe
        return None

    def _rebind(self, original, replacement) -> None:
        """Point every padicops module attribute bound to original at replacement."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "padicops" or modname.startswith("padicops.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every SPANNED function and the scalar ops; idempotent per tracer."""
        if self._restore:
            return
        importlib.import_module("padicops.cli")  # bind-by-name importers first
        for name, modname, path in SPANNED:
            mod = importlib.import_module(modname)
            owner, _, attr = path.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original, self._observer(name)))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self.wrap(name, original, self._observer(name)))
        self._install_scalar_counters(importlib.import_module("padicops.padic").PadicScalar)

    def _install_scalar_counters(self, scalar_cls) -> None:
        counts, tracer = self.counts, self
        add, mul, inverse = scalar_cls.__add__, scalar_cls.__mul__, scalar_cls.inverse
        add_keys = [f"padic.add.{k}" for k in _KINDS]
        mul_keys = [f"padic.mul.{k}" for k in _KINDS]

        def watch(result):
            kind = result.kind
            if kind == "zero":
                counts["zero_results"] += 1
            elif kind == "unit" and result.N < tracer.min_digits:
                tracer.min_digits = result.N
            return result

        def counted_add(a, b):
            counts[add_keys[(a.kind == "exact") + (b.kind == "exact")]] += 1
            return watch(add(a, b))

        def counted_mul(a, b):
            counts[mul_keys[(a.kind == "exact") + (b.kind == "exact")]] += 1
            return watch(mul(a, b))

        def counted_inverse(a):
            counts["padic.inverse.calls"] += 1
            return watch(inverse(a))

        for attr, original, replacement in (
            ("__add__", add, counted_add),
            ("__mul__", mul, counted_mul),
            ("inverse", inverse, counted_inverse),
        ):
            self._restore.append((scalar_cls, attr, original))
            setattr(scalar_cls, attr, replacement)

    def uninstall(self) -> None:
        """Put every original binding back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
