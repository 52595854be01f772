"""Property test: every JSON payload `check`, `build` and `extract`
accept ends in bounded time with a documented exit code.

Each payload starts well formed, so that it reaches the arithmetic,
and then has up to three of its values replaced by, or its keys
dropped for, JSON values of every kind."""

import contextlib
import io
import json
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from simds.cli import main

# negative and huge ints, bools, floats (NaN and the infinities too,
# which the json module reads back), strings, null, lists and objects
JSON_VALUES = st.recursive(
    st.one_of(st.integers(-3, 300), st.integers(), st.booleans(), st.floats(),
              st.text(max_size=4), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)

# valid fields, and fields that must be refused
FIELDS = st.sampled_from([
    {"p": 2, "m": 2, "poly": 7}, {"p": 2, "m": 3, "poly": 11},
    {"p": 2, "m": 3, "poly": 13}, {"p": 2, "m": 4, "poly": 19},
    {"p": 2, "m": 8, "poly": 283}, {"p": 2, "m": 9, "poly": 529},
    {"p": 3}, {"p": 7, "m": 1}, {"p": 11},
    {"p": 2, "m": 3, "poly": -13}, {"p": 2, "m": 3, "poly": -9},
    {"p": 2, "m": 3, "poly": 0b1111}, {"p": 4, "m": 1}, {"p": 2, "m": 17},
])


def _size(field) -> int:
    return field["p"] ** field.get("m", 1)


@st.composite
def matrices(draw, n=None):
    field = draw(FIELDS)
    n = draw(st.integers(1, 4)) if n is None else n
    entry = st.integers(0, _size(field) - 1)
    payload = {**field, "rows": draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                              min_size=n, max_size=n))}
    if draw(st.booleans()):
        payload["n"] = n
    return payload


@st.composite
def params(draw):
    field = draw(FIELDS)
    nonzero = st.integers(1, _size(field) - 1)
    return {"field": dict(field), "a": draw(st.lists(nonzero, min_size=3, max_size=3)),
            "d": draw(st.lists(nonzero, min_size=3, max_size=3)),
            "x": draw(nonzero), "y": draw(nonzero)}


@st.composite
def extract_payloads(draw):
    matrix = draw(matrices(n=3))
    nonzero = st.integers(1, _size(matrix) - 1)
    return {"matrix": matrix, "D": draw(st.lists(nonzero, min_size=3, max_size=3))}


def _paths(obj, prefix=()):
    yield prefix
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def broken(draw, payloads):
    """A fresh payload, changed in place."""
    payload = draw(payloads)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(payload))))
        value = draw(JSON_VALUES)
        if not path:
            payload = value
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return payload


ARGV = st.one_of(
    st.tuples(st.just("check"), broken(matrices())),
    st.tuples(st.just("build"), broken(params())),
    st.tuples(st.just("extract"), broken(extract_payloads())),
).map(lambda c: [c[0], "--json=" + json.dumps(c[1])])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ARGV)
@example(["field-table", "--m", "3", "--poly", "-9"])
@example(["field-table", "--m", "3", "--poly", "-13"])
@example(["check", "--json", '{"p":2,"m":3,"poly":-13,"rows":[[1]]}'])
@example(["extract", '--json={"matrix":{"p":7,"rows":[[2,1,1],[1,5,1],[1,1,1]]},'
                     '"D":[1,1,1]}'])
def test_cli_payload_exits_cleanly(argv):
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert time.monotonic() - t0 < 5.0
