"""Spans and counts around the public calls of each simds layer.

`Tracer.install` wraps every function in `TARGETS` wherever a simds
module binds it, and `restore` puts the originals back, so untraced
passes run the program untouched.  A span records (name, start, end,
parent span, item, pass) and an optional tag computed from the call;
a count target only counts calls.  Everything stays in memory until
`save`.  `GF.mul`, `GF.validate` and `Matrix.__init__` are counted,
not spanned: their time falls into the calling span's self time.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from time import perf_counter

import numpy as np

from simds import _tables, census, cli, construct, field, matrix, si

LAYERS = ("field", "tables", "matrix", "si", "construct", "census", "cli")


def _zeros_and_si(args, result):
    zeros = sum(v == 0 for row in args[0].rows for v in row)
    return zeros, result is not None and result.si


# (layer, owner, attribute, kind, tag(args, result) or None)
TARGETS = (
    ("field", field.GF, "__init__", "span", None),
    ("field", field.GF, "mul", "count", None),
    ("field", field.GF, "validate", "count", None),
    ("tables", _tables, "mul_table", "span", None),
    ("tables", _tables, "inv_table", "span", None),
    ("tables", _tables, "nonzero_grid", "span", None),
    ("matrix", matrix.Matrix, "__init__", "count", None),
    ("matrix", matrix.Matrix, "det", "span", None),
    ("matrix", matrix.Matrix, "is_mds", "span", None),
    ("matrix", matrix.Matrix, "is_involutory", "span", None),
    ("si", si, "si_check_3x3", "span", _zeros_and_si),
    ("si", si, "si_oracle", "span", lambda args, result: args[0].gf.q),
    ("si", si, "associated_diagonals", "span", None),
    ("construct", construct, "build_matrix", "span", None),
    ("construct", construct, "extract_xy", "span", None),
    ("census", census, "brute_force_S", "span", None),
    ("census", census, "exhaustive_matrix_census", "span",
     lambda args, result: args[1]),
    ("census", census, "enumeration_stats", "span", lambda args, result: result),
    ("census", census, "sweep_parameter_space", "span", None),
    ("census", census, "run_census", "span", None),
    ("cli", cli, "main", "span", None),
)


NAMES = tuple(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
              for _, owner, attr, _, _ in TARGETS)


def nid(name: str) -> int:
    return NAMES.index(name)


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("q")
        self.pass_id = array("i")
        self.tags: list = []
        self.counts = [0] * len(TARGETS)
        self.pass_counts: dict[int, list] = {}
        self.current_item = -1
        self.current_pass = -1
        self._stack: list = []
        self._patched: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, n: int, fn, tag):
        start, end, name, parent = self.start, self.end, self.name, self.parent
        item, passes, tags, stack = self.item, self.pass_id, self.tags, self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[n] += 1
            idx = len(name)
            name.append(n)
            parent.append(stack[-1] if stack else -1)
            item.append(self.current_item)
            passes.append(self.current_pass)
            tags.append(None)
            end.append(0.0)
            stack.append(idx)
            result = None
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if tag is not None:
                    tags[idx] = tag(args, result)
        return wrapper

    def _count(self, n: int, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[n] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, pass_id: int, item: int = -1) -> None:
        """Wrap every target; spans made until `restore` carry `pass_id`."""
        self.current_pass = pass_id
        self.current_item = item
        modules = [m for k, m in sys.modules.items()
                   if k == "simds" or k.startswith("simds.")]
        for n, (_, owner, attr, kind, tag) in enumerate(TARGETS):
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                homes = [(owner, attr)]
            else:
                orig = getattr(owner, attr)
                homes = [(m, k) for m in modules for k, v in vars(m).items()
                         if v is orig]
            wrapped = (self._span(n, orig, tag) if kind == "span"
                       else self._count(n, orig))
            for home, key in homes:
                setattr(home, key, wrapped)
                self._patched.append((home, key, orig))

    def restore(self) -> None:
        for home, key, orig in reversed(self._patched):
            setattr(home, key, orig)
        self._patched = []
        self.pass_counts[self.current_pass] = list(self.counts)
        self.counts[:] = [0] * len(self.counts)

    def mark(self, item: int) -> None:
        self.current_item = item

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int32),
                "item": np.array(self.item, dtype=np.int64),
                "pass": np.array(self.pass_id, dtype=np.int32)}

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(NAMES),
                            layers=np.array([t[0] for t in TARGETS]),
                            **self.arrays())


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tr: Tracer, wl, items: int, traced_passes: list,
              untraced_s: list, traced_s: list) -> dict:
    """Every per-layer metric of one traced run.

    Per-item counts come from the first traced pass, which runs the first
    of the workload's inputs (`items` items); latencies and rates are medians over all traced
    passes.  A layer the workload never calls reads 0."""
    a = tr.arrays()
    dur = a["end"] - a["start"]
    name, passes = a["name"], a["pass"]
    traced = np.isin(passes, traced_passes)
    setup = passes == -1
    first = traced_passes[0]
    first_counts = tr.pass_counts[first]

    def spans(target, where=traced):
        return np.flatnonzero((name == nid(target)) & where)

    def per_item(target):
        return first_counts[nid(target)] / items

    def us(idx):
        return float(np.median(dur[idx])) * 1e6 if len(idx) else 0.0

    def rate(target, candidates, pick=lambda tag: True):
        idx = [i for i in spans(target) if pick(tr.tags[i])]
        return candidates / float(np.median(dur[idx])) if idx else 0.0

    base = getattr(wl, "q", 1) - 1
    out = {
        "field.gf_init_s": float(dur[spans("GF.__init__", setup)].sum()),
        "field.mul_calls_per_item": per_item("GF.mul"),
        "field.validate_calls_per_item": per_item("GF.validate"),
        "tables.build_s": float(sum(dur[spans(t, setup)].sum() for t in
                                    ("_tables.mul_table", "_tables.inv_table",
                                     "_tables.nonzero_grid"))),
        "matrix.init_calls_per_item": per_item("Matrix.__init__"),
        "matrix.det_calls_per_item": per_item("Matrix.det"),
        "matrix.is_mds_us": us(spans("Matrix.is_mds")),
        "si.assoc_diag_calls_per_item": per_item("si.associated_diagonals"),
    }
    check = spans("si.si_check_3x3")
    buckets = {"z0": lambda z, s: z == 0, "z1": lambda z, s: z == 1,
               "z2p": lambda z, s: z >= 2, "si": lambda z, s: s}
    for key, pick in buckets.items():
        out[f"si.check_3x3_us.{key}"] = us([i for i in check if pick(*tr.tags[i])])
    oracle = spans("si.si_oracle")
    for q in (4, 8, 16):
        out[f"si.oracle_us.q{q}"] = us([i for i in oracle if tr.tags[i] == q])
    out["construct.build_us"] = us(spans("construct.build_matrix"))
    out["construct.extract_us"] = us(spans("construct.extract_xy"))
    out["census.scan_si_mds.cand_per_s"] = rate(
        "census.exhaustive_matrix_census", base ** 9, lambda t: t == "SI_MDS")
    out["census.scan_inv_mds.cand_per_s"] = rate(
        "census.exhaustive_matrix_census", base ** 9, lambda t: t == "INV_MDS")
    enum = [i for i in spans("census.enumeration_stats") if tr.tags[i] is not None]
    out["census.enum.tuples_per_s"] = _median(
        [tr.tags[i].tuple_count / dur[i] for i in enum])
    out["census.enum.tuples_per_matrix"] = (
        tr.tags[enum[0]].tuples_per_matrix or 0) if enum else 0
    out["census.enum.scalar_checks"] = _inside(
        a["parent"], name, spans("si.si_check_3x3", passes == first),
        nid("census.enumeration_stats"))
    tuple_sets = [spans("census.brute_force_S", passes == p) for p in traced_passes]
    out["census.tuple_sets.cand_per_s"] = _median(
        [len(idx) * base ** 6 / dur[idx].sum() for idx in tuple_sets if len(idx)])
    out["census.sweep.tuples_per_s"] = rate("census.sweep_parameter_space",
                                            base ** 8)
    span_layer = np.array([LAYERS.index(t[0]) for t in TARGETS])[name]
    own = tr.self_times()
    for li, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = _median(
            [float(own[(passes == p) & (span_layer == li)].sum())
             for p in traced_passes])
    out["trace.overhead_s"] = _median(traced_s) - _median(untraced_s)
    return out


def _inside(parent, name, spans, ancestor: int) -> int:
    """How many of `spans` have a span named `ancestor` above them."""
    n = 0
    for i in spans:
        p = parent[i]
        while p >= 0 and name[p] != ancestor:
            p = parent[p]
        n += p >= 0
    return int(n)
