"""The benchmark's workloads.

A workload has `inputs` distinct pass inputs, made from the seed before
any timing (`batch`).  Pass k does the program's work on input
k % `inputs` (`solve`, the timed region), turns it into one latency per
check, in a fixed order, where checks are timed singly (`samples`), and hands its outputs to the gate
(`check`, one problem list per operation).

Calls into simds go through module attributes looked up at call time,
so the tracer's wrappers see them.  See README.md for why each workload
exists and how its inputs are drawn.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from time import perf_counter

import simds
from simds import _tables, census, cli

import gate

Q8 = (3, 0b1011)
# check-mix fields as (m, modulus): GF(4), GF(8), GF(16)
MIX_FIELDS = ((2, 0b111), (3, 0b1011), (4, 0b10011))
MIX_BLOCK = 1200        # items per check-mix pass, a multiple of 12
MIX_BLOCK_SMOKE = 48
MIX_INPUTS = 4          # distinct check-mix blocks, repeated in turn
ENUM_CHECKS = 120       # check-mix items in each enum-q8 pass
TUPLE_SETS = ("S", "S1", "S2", "S3", "S4", "S5")


def setup_fields(fields) -> list:
    """Construct each field and its bulk tables: the work counted in
    `setup_s`."""
    gfs = []
    for m, poly in fields:
        gf = simds.GF(2, m, poly)
        _tables.mul_table(gf)
        _tables.inv_table(gf)
        _tables.nonzero_grid(gf.q, 3)
        gfs.append(gf)
    return gfs


@dataclass(frozen=True)
class CountOutput:
    rc: int | None
    text: str
    error: BaseException | None
    sweep: object = None
    mix: tuple | None = None


class CountWorkload:
    """One in-process `simds count` run per pass, optionally followed by
    `sweep_parameter_space` and by one seeded block of `mix` checks.
    The census input is a whole search space, the same for every seed."""

    inputs = 1

    def __init__(self, field: tuple, sets: tuple, exhaustive: bool,
                 sweep: bool, mix: "CheckMix | None" = None):
        self.m, self.poly = field
        self.mix = mix
        self.q = 1 << self.m
        self.sets = sets
        self.exhaustive = exhaustive
        self.sweep = sweep
        self.argv = ["count", "--m", str(self.m), "--poly", str(self.poly),
                     "--set", ",".join(sets), "--jobs", "1"]
        if exhaustive:
            self.argv.append("--exhaustive")
        self.gf = None

    @property
    def params(self) -> dict:
        return {"argv": ["simds"] + self.argv,
                "sweep": f"sweep_parameter_space(GF(2,{self.m},{self.poly}))"
                         if self.sweep else None,
                "checks": self.mix.params if self.mix else None}

    def setup(self) -> None:
        self.gf = setup_fields([(self.m, self.poly)])[0]
        if self.mix:
            self.mix.setup()

    def batch(self, j: int):
        return j, self.mix.batch(j) if self.mix else None

    def items(self, batch) -> int:
        return 1

    def solve(self, batch, mark=None) -> CountOutput:
        buf = io.StringIO()
        rc = error = None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(self.argv)
        except Exception as err:  # counted as a failure of every set
            error = err
        sweep = None
        if self.sweep:
            try:
                sweep = census.sweep_parameter_space(self.gf)
            except Exception as err:
                sweep = err
        mix = self.mix.solve(batch[1], mark) if self.mix else None
        return CountOutput(rc, buf.getvalue(), error, sweep, mix)

    def samples(self, out: CountOutput) -> list:
        """No per-check latencies: a census call has no single-check time."""
        return []

    def check(self, batch, out: CountOutput) -> list:
        if out.error is not None:
            ops = [[f"exception {type(out.error).__name__}: {out.error}"]
                   for _ in self.sets]
        else:
            per_set = gate.check_count_output(out.text, out.rc, self.sets,
                                              self.m, self.exhaustive)
            ops = [per_set[s] for s in self.sets]
        if self.sweep:
            ops.append(gate.check_sweep(out.sweep, self.m))
        if self.mix:
            ops += self.mix.check(batch[1], out.mix)
        return ops


@dataclass(frozen=True)
class Item:
    field: int                  # index into MIX_FIELDS
    rows: tuple | None = None   # a drawn matrix
    params: tuple | None = None  # (a11, a22, a33, d1, d2, d3, x, y) of a built one


@dataclass(frozen=True)
class Verdicts:
    rows: tuple
    det: int
    mds: bool
    involutory: bool
    si: bool
    witness: tuple | None
    oracle_si: bool
    oracle_witness: tuple | None
    oracle_raised: bool
    extracted: tuple | None


class CheckMix:
    """Seeded single-matrix checks over GF(4), GF(8) and GF(16), timed
    one item at a time."""

    inputs = MIX_INPUTS

    def __init__(self, seed: int, block: int = MIX_BLOCK):
        self.seed = seed
        self.block = block
        self.refs = [gate.RefField(m, poly) for m, poly in MIX_FIELDS]
        self.gfs = None

    @property
    def params(self) -> dict:
        return {"fields": [f"GF(2,{m},{poly:#b})" for m, poly in MIX_FIELDS],
                "items_per_pass": self.block,
                "distinct_passes": self.inputs,
                "mix": "item i uses field i % 3; item i is built from 8 "
                       "parameters when (i // 3) % 4 == 3, else drawn "
                       "uniformly from all 3x3 matrices"}

    def setup(self) -> None:
        self.gfs = setup_fields(MIX_FIELDS)

    def batch(self, j: int) -> tuple:
        """Block j's items, from a generator seeded by (seed, j)."""
        rng = random.Random(f"check-mix/{self.seed}/{j}")
        items = []
        for i in range(self.block):
            f = i % 3
            ref = self.refs[f]
            q = ref.q
            if (i // 3) % 4 == 3:
                while True:  # semi-involutory needs s = a11d1+a22d2+a33d3 != 0
                    params = tuple(rng.randrange(1, q) for _ in range(8))
                    if ref.sums(params)[3]:
                        break
                items.append(Item(f, params=params))
            else:
                items.append(Item(f, rows=tuple(tuple(rng.randrange(q) for _ in range(3))
                                                for _ in range(3))))
        return j, items

    def items(self, batch) -> int:
        return len(batch[1])

    def _verdicts(self, item: Item) -> Verdicts:
        gf = self.gfs[item.field]
        if item.params is None:
            A = simds.Matrix(gf, item.rows)
        else:
            p = simds.SiParams(gf, *item.params)
            A = simds.build_matrix(p)
        det = A.det()
        mds = A.is_mds()
        inv = A.is_involutory()
        v = simds.si_check_3x3(A)
        try:
            o = simds.si_oracle(A)
            osi, owit, raised = o.si, o.witness, False
        except ValueError:  # singular: not semi-involutory
            osi, owit, raised = False, None, True
        extracted = None
        if item.params is not None and all(x for row in A.rows for x in row):
            extracted = simds.extract_xy(A, p.diag)
        return Verdicts(A.rows, det, mds, inv, v.si, v.witness, osi, owit,
                        raised, extracted)

    def solve(self, batch, mark=None) -> tuple:
        j, items = batch
        first = j * self.block
        verdicts = []
        lat = []
        for i, item in enumerate(items):
            if mark is not None:
                mark(first + i)
            t0 = perf_counter()
            try:
                got = self._verdicts(item)
            except Exception as err:  # counted as a failure of this item
                got = err
            lat.append(perf_counter() - t0)
            verdicts.append(got)
        return verdicts, lat

    def samples(self, out) -> list:
        return [s * 1e6 for s in out[1]]

    def check(self, batch, out) -> list:
        return [gate.check_item(self.refs[item.field], item, got)
                for item, got in zip(batch[1], out[0])]


WORKLOADS = ("scan-q8", "enum-q8", "check-mix")


def make(name: str, seed: int, smoke: bool = False):
    """The named workload; `smoke` shrinks it to GF(4) scans and short
    check-mix passes for the benchmark's own tests."""
    field = (2, 0b111) if smoke else Q8
    if name == "scan-q8":
        return CountWorkload(field, ("SI_MDS", "INV_MDS"),
                             exhaustive=True, sweep=False)
    if name == "enum-q8":
        checks = CheckMix(seed, MIX_BLOCK_SMOKE // 4 if smoke else ENUM_CHECKS)
        return CountWorkload(field, TUPLE_SETS + ("SI_MDS",),
                             exhaustive=False, sweep=True, mix=checks)
    if name == "check-mix":
        return CheckMix(seed, MIX_BLOCK_SMOKE if smoke else MIX_BLOCK)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
