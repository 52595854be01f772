import concurrent.futures
import os
from concurrent.futures import Future

import pytest

from simds import GF


@pytest.fixture(scope="session")
def gf4():
    return GF(2, 2, 0b111)


@pytest.fixture(scope="session")
def gf8():
    # x^3 + x^2 + 1, the modulus used by the worked 3x3 fixtures
    return GF(2, 3, 0b1101)


@pytest.fixture(scope="session")
def gf8b():
    # x^3 + x + 1, the other degree-3 modulus
    return GF(2, 3, 0b1011)


@pytest.fixture(scope="session")
def gf16a():
    # x^4 + x + 1
    return GF(2, 4, 0b10011)


@pytest.fixture(scope="session")
def gf16b():
    # x^4 + x^3 + 1
    return GF(2, 4, 0b11001)


@pytest.fixture(scope="session")
def f11():
    return GF(11)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the census process pool by one that runs each task in
    this process, on a host reporting 4 CPUs, since the census caps its
    jobs at the CPUs; returns the list of pool sizes asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, arg):
            future = Future()
            future.set_result(fn(arg))
            return future

    # `census` imports the pool class from `concurrent.futures` at each
    # pooled run
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return sizes
