"""Recursive sign tables, step functions on their dyadic cells, the
identity that takes the distributive functional P from the table's rows to
the cells, its continuity bound, and the determinant identity behind it.

Stage n is an N x N matrix of +-1 entries, N = 2**(n-1).  Stage n+1
duplicates each stage-n row into adjacent column pairs; the lower half
flips the sign on even columns.  Orthogonality and symmetry are asserted
by tests, integer-exactly.  Coefficient arithmetic is exact rational;
only quadrature of non-step integrands uses floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

import numpy as np

from .core import Dyadic, Interval
from .density import MeasurableSet
from .errors import StageTooLarge

MAX_STAGE = 16
CELL_DEPTH = 12             # the finest cell partition continuity_bound takes
_PRIME = (1 << 31) - 1      # residues below 2**31: products fit in int64
_TABLE_CACHE: dict[int, np.ndarray] = {}


@dataclass(frozen=True)
class SignTable:
    stage: int
    matrix: np.ndarray            # int8, entries +-1

    @property
    def size(self) -> int:
        return 1 << (self.stage - 1)

    def to_csv(self) -> str:
        lines = [",".join(map(str, row)) for row in self.matrix.tolist()]
        return "\n".join(lines) + "\n"


def sign_table(n: int) -> SignTable:
    """Stage-n table: upper half duplicates columns, lower half alternates."""
    if not 1 <= n <= MAX_STAGE:
        raise StageTooLarge(f"stage must be in 1..{MAX_STAGE}, got {n}")
    if n not in _TABLE_CACHE:
        m = np.array([[1]], dtype=np.int8)
        for stage in range(1, n):
            half = m.shape[0]
            nxt = np.empty((2 * half, 2 * half), dtype=np.int8)
            nxt[:half, 0::2] = m
            nxt[:half, 1::2] = m
            nxt[half:, 0::2] = m
            nxt[half:, 1::2] = -m
            m = nxt
        _TABLE_CACHE[n] = m
    mat = _TABLE_CACHE[n]
    return SignTable(n, mat)


def _int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for sign tables, through BLAS in float32 and back to int64.

    Every entry and every partial sum of a product of +-1 tables is an
    integer of magnitude at most N <= 2**15, below 2**24, so the float32
    product is exact in any summation order; numpy multiplies int64 arrays
    without BLAS, many times slower.
    """
    return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.int64)


def orthogonality_check(table: SignTable) -> int:
    """Largest |off-diagonal row dot product|; 0 for every stage."""
    m = table.matrix
    gram = _int_matmul(m, m.T)
    off = gram - np.diag(np.diag(gram))
    return int(np.abs(off).max()) if off.size else 0


def symmetry_check(table: SignTable) -> bool:
    return bool(np.array_equal(table.matrix, table.matrix.T))


def _bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free exact determinant of an integer matrix."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _rational_det(mat: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix: det M = det(L*M) / L**n,
    L the lcm of the entries' denominators, by Bareiss elimination."""
    scale = lcm(*(v.denominator for row in mat for v in row))
    return Fraction(_bareiss_det([[v.numerator * (scale // v.denominator)
                                   for v in row] for row in mat]),
                    scale ** len(mat))


def _full_rank_mod_p(mat) -> bool:
    """True when the integer matrix is invertible modulo _PRIME, which
    makes its determinant nonzero over the rationals; False says nothing.

    One Gaussian elimination on residues: every product of two residues
    is below 2**62, so each pivot's update is one exact int64 outer product.
    """
    a = np.array(mat, dtype=np.int64) % _PRIME
    n = len(a)
    for k in range(n):
        rows = np.flatnonzero(a[k:, k])
        if not rows.size:
            return False
        pivot = k + rows[0]
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
        scale = a[k + 1:, k] * pow(int(a[k, k]), -1, _PRIME) % _PRIME
        rest = a[k + 1:, k + 1:]
        rest -= np.outer(scale, a[k, k + 1:])
        rest %= _PRIME
    return True


def span_check(table: SignTable, with_determinant: bool = True) -> bool:
    """Every unit row is a rational combination of table rows.

    By orthogonality and symmetry the candidate combination for e_j is row
    j divided by N; the reconstruction is verified entry by entry.  For
    stages up to 9 a nonzero determinant confirms invertibility, certified
    by exact elimination modulo the prime 2**31 - 1.  Once M M = N I holds,
    det(M)**2 = N**N is a power of two, so M is invertible modulo that odd
    prime and the certificate gives the exact answer.
    """
    m = table.matrix
    n_size = table.size
    gram = _int_matmul(m, m)  # symmetric table: row combinations of rows
    ok = bool(np.array_equal(gram, n_size * np.eye(n_size, dtype=np.int64)))
    if with_determinant and n_size <= 256:
        ok = ok and _full_rank_mod_p(m)
    return ok


# ---------------------------------------------------------------------------
# Step functions over dyadic cells
# ---------------------------------------------------------------------------

def cell(j: int, n: int) -> Interval:
    """I_{j,n} = [(j-1)/N, j/N) for 1 <= j <= N = 2**(n-1)."""
    return Interval(Dyadic(j - 1, n - 1), Dyadic(j, n - 1), True, False)


def cell_set(j: int, n: int) -> MeasurableSet:
    return MeasurableSet([cell(j, n)])


@dataclass(frozen=True)
class StepFunction:
    """Piecewise constant on the 2**(n-1) dyadic cells of stage n."""

    stage: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != 1 << (self.stage - 1):
            raise ValueError("value count must match the stage cell count")

    @property
    def size(self) -> int:
        return 1 << (self.stage - 1)

    def cell_integral(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact integral of the step function over [lo, hi]."""
        N = self.size
        total = Fraction(0)
        for j, v in enumerate(self.values):
            a, b = Fraction(j, N), Fraction(j + 1, N)
            left, right = max(a, lo), min(b, hi)
            if left < right:
                total += v * (right - left)
        return total


class SetFunctional:
    """g(E) on finite interval unions, restrictedly additive."""

    def __init__(self, name: str, func: Callable[[MeasurableSet], Fraction],
                 additive: bool = True):
        self.name = name
        self._func = func
        self.additive = additive

    def __call__(self, E: MeasurableSet):
        return self._func(E)


def measure_functional() -> SetFunctional:
    return SetFunctional("m", lambda E: E.measure.as_fraction())


def poly_integral_functional(coeffs: Sequence[Fraction],
                             name: str = "") -> SetFunctional:
    """g(E) = integral over E of sum(c_k x^k) dx, exact in rationals."""
    cs = [Fraction(c) for c in coeffs]
    anti = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(cs)]

    def prim(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(anti):
            acc = acc * x + c
        return acc

    def ev(E: MeasurableSet) -> Fraction:
        total = Fraction(0)
        for iv in E.components:
            total += prim(iv.hi.as_fraction()) - prim(iv.lo.as_fraction())
        return total

    return SetFunctional(name or "poly-integral", ev)


def step_integral_functional(w: StepFunction) -> SetFunctional:
    """g(E) = integral of the step function w over E, exact in rationals."""
    def ev(E: MeasurableSet) -> Fraction:
        total = Fraction(0)
        for iv in E.components:
            total += w.cell_integral(iv.lo.as_fraction(), iv.hi.as_fraction())
        return total

    return SetFunctional(f"int({w.stage}-step)", ev)


def _cell_integrals(f, n: int) -> list:
    """Integrals of f over the stage-n cells; exact for step functions."""
    N = 1 << (n - 1)
    if isinstance(f, StepFunction):
        return [f.cell_integral(Fraction(j, N), Fraction(j + 1, N))
                for j in range(N)]
    out = []
    for j in range(N):
        a, b = j / N, (j + 1) / N
        h = (b - a) / 16
        xs = [a + k * h for k in range(17)]
        w = [1, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 1]
        out.append(sum(wk * f(x) for wk, x in zip(w, xs)) * h / 3)
    return out


def pf_identity_residual(g: SetFunctional, f, n: int) -> float:
    """|P(f_N) - N * sum_j F_j g(I_jn)| for the stage-n truncation f_N.

    The left side goes through the basis coefficients and P on each basis
    row; the right side is the direct cell form.  Exact rational inputs
    give residual zero.
    """
    N = 1 << (n - 1)
    m = sign_table(n).matrix
    F = _cell_integrals(f, n)
    gvals = [g(cell_set(j + 1, n)) for j in range(N)]
    exact = all(isinstance(v, Fraction) for v in F + gvals)
    if not exact:
        F = [float(v) for v in F]
        gvals = [float(v) for v in gvals]
    lhs = Fraction(0) if exact else 0.0
    for i in range(N):
        b_i = sum(int(m[i, j]) * F[j] for j in range(N))
        p_hi = sum(int(m[i, k]) * gvals[k] for k in range(N))
        lhs += b_i * p_hi
    rhs = N * sum(Fj * gj for Fj, gj in zip(F, gvals))
    return abs(float(lhs - rhs))


def continuity_bound(g: SetFunctional) -> float:
    """Supremum of sum g(E_i)^2 / mE_i over the dyadic cell partitions of
    the unit interval, refined to depth CELL_DEPTH; for g(E) the integral
    of w the values approach the integral of w**2 from below.
    """
    best = 0.0
    for depth in range(1, CELL_DEPTH + 1):
        total = 0.0
        for j in range(1 << depth):
            E = cell_set(j + 1, depth + 1)
            m = E.measure.as_fraction()
            v = g(E)
            total += float(Fraction(v) ** 2 / m) if isinstance(v, Fraction) \
                else v * v / float(m)
        best = max(best, total)
    return best


def determinant_identity_check(gs: Sequence, ms: Sequence, M) -> float:
    """Relative residual between det(M^2 m_i d_ij - g_i g_j) and its
    closed form M^(2(n-1)) m_1..m_n (M^2 - sum g_i^2/m_i)."""
    n = len(gs)
    exact = (all(isinstance(v, Fraction) for v in gs)
             and all(isinstance(v, Fraction) for v in ms)
             and isinstance(M, Fraction))
    if exact:
        mat = [[M * M * ms[i] * (1 if i == j else 0) - gs[i] * gs[j]
                for j in range(n)] for i in range(n)]
        det = _rational_det(mat)
        prod = Fraction(1)
        for m in ms:
            prod *= m
        closed = (M ** (2 * (n - 1))) * prod * (
            M * M - sum(g * g / m for g, m in zip(gs, ms)))
        denom = max(Fraction(1), abs(closed))
        return abs(float((det - closed) / denom))
    a = np.array([[float(M) ** 2 * float(ms[i]) * (i == j)
                   - float(gs[i]) * float(gs[j])
                   for j in range(n)] for i in range(n)])
    det = float(np.linalg.det(a))
    prod = 1.0
    for m in ms:
        prod *= float(m)
    closed = float(M) ** (2 * (n - 1)) * prod * (
        float(M) ** 2 - sum(float(g) ** 2 / float(m)
                            for g, m in zip(gs, ms)))
    return abs(det - closed) / max(1.0, abs(closed))
