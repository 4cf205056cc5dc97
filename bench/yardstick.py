"""A fixed pure-Python task whose duration samples how fast the
interpreter runs on this machine at the moment (see run.py)."""

from fractions import Fraction
from time import perf_counter


def yardstick() -> float:
    """Seconds for Fraction arithmetic with tuple keys and dict inserts,
    the kind of work utpoly does; about 0.5 ms."""
    t0 = perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(i, i + 1)
        seen[(i, i % 7)] = acc
    return perf_counter() - t0
