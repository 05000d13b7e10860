"""A wall clock rescaled to a fixed machine speed.

On a shared machine the speed available to one process drifts by 10-30%
over minutes (other tenants' load on the caches, memory bus and sibling
hyperthreads), and a whole run can fall into a slow phase, so neither a
median nor a minimum over passes repeats between runs.  ``RefClock`` runs a
short fixed pure-Python kernel before the first and after every measured
operation, and rescales each operation's wall time by REF_SECONDS divided by
the mean of the two kernel times around it.  The kernel mixes big-integer
Bareiss elimination, Fraction elimination and small-prime polynomial
arithmetic, the three kinds of work in okmod's passes.  The result is
seconds at the speed the machine had when REF_SECONDS was taken.  The kernel does not touch
okmod, so a change to the program moves the rescaled time exactly as it
moves the wall time.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# Kernel time on the machine of the README's reference figures.
REF_SECONDS = 0.016

_rng = random.Random(20240601)
_INT_MATRIX = [[_rng.randint(-2 ** 20, 2 ** 20) for _ in range(9)] for _ in range(9)]
_FRAC_MATRIX = [[Fraction(_rng.randint(-99, 99), _rng.randint(1, 99)) for _ in range(6)]
                for _ in range(6)]


def _bareiss(a):
    a = [r[:] for r in a]
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def _fraction_det(a):
    a = [r[:] for r in a]
    det = Fraction(1)
    for c in range(len(a)):
        piv = a[c][c]
        det *= piv
        for r in range(c + 1, len(a)):
            f = a[r][c] / piv
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


_P = 10007
_POLYS = [tuple(_rng.randrange(_P) for _ in range(5)) for _ in range(16)]


def _poly_products(polys, p):
    """Products of all pairs, reduced modulo x^5 - x - 1 and p."""
    acc = 0
    for a in polys:
        for b in polys:
            c = [0] * 9
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    c[i + j] += x * y
            for k in range(8, 4, -1):        # x^5 = x + 1
                c[k - 5] += c[k]
                c[k - 4] += c[k]
            acc += sum(tuple(v % p for v in c[:5]))
    return acc


def kernel_seconds() -> float:
    start = perf_counter()
    for _ in range(12):
        _bareiss(_INT_MATRIX)
        _fraction_det(_FRAC_MATRIX)
    for _ in range(4):
        _poly_products(_POLYS, _P)
    return perf_counter() - start


class RefClock:
    """Measures calls in seconds at reference speed."""

    def __init__(self):
        self.last_kernel = kernel_seconds()
        self.kernels = [self.last_kernel]

    def call(self, fn, *args):
        """(result or raised exception, rescaled seconds, wall seconds)."""
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        wall = perf_counter() - start
        before, after = self.last_kernel, kernel_seconds()
        self.last_kernel = after
        self.kernels.append(after)
        return result, wall * REF_SECONDS * 2 / (before + after), wall
