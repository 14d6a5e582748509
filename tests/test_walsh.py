import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burkill.core import Dyadic
from burkill.errors import StageTooLarge
from burkill.walsh import (
    StepFunction,
    _PRIME,
    _bareiss_det,
    _full_rank_mod_p,
    _int_matmul,
    _rational_det,
    cell,
    continuity_bound,
    determinant_identity_check,
    measure_functional,
    orthogonality_check,
    pf_identity_residual,
    poly_integral_functional,
    sign_table,
    span_check,
    step_integral_functional,
    symmetry_check,
)
from oracles import exact_determinant

F = Fraction


class TestSignTable:
    def test_stage_one(self):
        assert sign_table(1).matrix.tolist() == [[1]]

    def test_stage_two(self):
        assert sign_table(2).matrix.tolist() == [[1, 1], [1, -1]]

    def test_stage_three_rows(self):
        m = sign_table(3).matrix.tolist()
        assert m[0] == [1, 1, 1, 1]
        assert m[1] == [1, 1, -1, -1]
        assert m[2] == [1, -1, 1, -1]
        assert m[3] == [1, -1, -1, 1]

    def test_symmetry_stage_five(self):
        assert symmetry_check(sign_table(5))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_orthogonality(self, n):
        assert orthogonality_check(sign_table(n)) == 0

    def test_diagonal_dot_products(self):
        t = sign_table(4)
        m = t.matrix.astype(np.int64)
        gram = m @ m.T
        assert all(gram[i, i] == t.size for i in range(t.size))

    def test_stage_bounds(self):
        with pytest.raises(StageTooLarge):
            sign_table(0)
        with pytest.raises(StageTooLarge):
            sign_table(17)

    def test_csv_export(self):
        csv = sign_table(3).to_csv()
        assert csv.splitlines()[0] == "1,1,1,1"
        assert len(csv.splitlines()) == 4

    @pytest.mark.parametrize("n", range(1, 10))
    def test_float32_products_are_exact(self, n):
        m = sign_table(n).matrix
        want = m.astype(np.int64) @ m.T.astype(np.int64)
        got = _int_matmul(m, m.T)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestSpan:
    def test_unit_row_combination_stage_two(self):
        # e_1 = (row1 + row2) / 2
        m = sign_table(2).matrix
        combo = (m[0] + m[1]) / 2
        assert combo.tolist() == [1, 0]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_span(self, n):
        assert span_check(sign_table(n))

    def test_determinant_nonzero(self):
        for n in range(1, 9):
            det = exact_determinant(sign_table(n))
            assert det != 0
            N = 1 << (n - 1)
            assert det * det == N ** N  # |det| = N^(N/2)


@st.composite
def integer_matrices(draw):
    """Square matrices of n <= 6 with entries in -3..3; some are made
    singular by repeating a scaled row."""
    n = draw(st.integers(0, 6))
    mat = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
           for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3))
        mat[j] = [c * v for v in mat[i]] if i != j else [0] * n
    return mat


class TestInvertibilityCertificate:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_certificate_equals_bareiss(self, mat):
        # |det| <= (9 * sqrt(6)) * (3 * sqrt(6))**5 < p by Hadamard's bound
        # (a scaled row has entries up to 9), so here the determinant
        # vanishes modulo p only when it vanishes
        assert _full_rank_mod_p(mat) == (_bareiss_det(mat) != 0)

    def test_singular_mod_p_is_not_certified(self):
        # det p: invertible over Q, yet the certificate cannot say so
        assert not _full_rank_mod_p([[_PRIME, 0], [0, 1]])


class TestStepFunction:
    def test_cells(self):
        iv = cell(1, 3)
        assert (iv.lo, iv.hi) == (Dyadic(0), Dyadic(1, 2))
        assert iv.left_closed and not iv.right_closed


class TestIdentity:
    def test_step_inputs_exact(self):
        rng = random.Random(7)
        w = StepFunction(4, tuple(F(rng.randint(-4, 4), 3)
                                  for _ in range(8)))
        f = StepFunction(8, tuple(F(rng.randint(-8, 8), 5)
                                  for _ in range(128)))
        assert pf_identity_residual(step_integral_functional(w), f, 6) == 0.0

    def test_step_function_is_its_own_truncation(self):
        f = StepFunction(4, tuple(F(j, 8) for j in range(8)))
        assert pf_identity_residual(measure_functional(), f, 4) == 0.0

    def test_callable_input_small_residual(self):
        res = pf_identity_residual(measure_functional(), lambda x: x, 6)
        assert res <= 1e-9


class TestContinuityBound:
    def test_measure_bound_is_one(self):
        assert continuity_bound(measure_functional()) == 1.0

    def test_integral_of_2x(self):
        bound = continuity_bound(poly_integral_functional([0, 2], "2x"))
        assert bound <= 4.0 / 3.0 + 1e-12
        assert 4.0 / 3.0 - bound <= 1e-3


class TestDensityBridge:
    def test_characteristic_function_route(self):
        # for f the characteristic function of E, the cell form
        # N * sum m(E & I_jn) g(I_jn) is a density-kernel Riemann sum over
        # the dyadic cell division, and it approaches the exact integral
        from burkill.catalog import stieltjes, poly
        from burkill.core import Dyadic, Region, ZERO, division_from_points
        from burkill.density import (MeasurableSet, density_kernel,
                                     intersect_measure)
        from burkill.integrator import riemann_sum

        E = MeasurableSet.from_spans([(ZERO, Dyadic(3, 3))])
        g_iv = stieltjes(poly("x^2", [0, 0, 1]))
        g_set = poly_integral_functional([0, 2], "2x")
        for n in (4, 8, 10):
            N = 1 << (n - 1)
            walsh_route = N * sum(
                float(intersect_measure(E, cell(j + 1, n)))
                * g_iv(cell(j + 1, n)) for j in range(N))
            W = Region.interval(ZERO, Dyadic(1))
            division = division_from_points(
                W, [Dyadic(j, n - 1) for j in range(N + 1)])
            density_route = riemann_sum(density_kernel(g_iv, E), division)
            assert abs(walsh_route - density_route) <= 1e-12
        exact = float(g_set(E))
        assert abs(density_route - exact) <= 2.0 ** -9


class TestDeterminantIdentity:
    def test_single_set(self):
        assert determinant_identity_check([F(1, 2)], [F(1, 3)],
                                          F(2)) == 0.0

    def test_exact_pair(self):
        gs = [F(1, 3), F(-2, 5)]
        ms = [F(1, 4), F(1, 2)]
        assert determinant_identity_check(gs, ms, F(3, 2)) == 0.0

    def test_float_residual(self):
        rng = random.Random(12)
        for n in (3, 5, 8):
            gs = [rng.uniform(-1, 1) for _ in range(n)]
            ms = [rng.uniform(0.1, 1) for _ in range(n)]
            assert determinant_identity_check(gs, ms, 2.0) <= 1e-10


def ref_fraction_det(mat):
    """Gaussian elimination in Fractions, the determinant's former code."""
    a = [row[:] for row in mat]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if a[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] * inv
            if factor == 0:
                continue
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det


FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 60))


@st.composite
def rational_matrices(draw):
    """Square matrices of n <= 6 with small rational entries; some are made
    singular by repeating a scaled row."""
    n = draw(st.integers(0, 6))
    mat = [draw(st.lists(FRACTIONS, min_size=n, max_size=n))
           for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(FRACTIONS)
        mat[j] = [c * v for v in mat[i]] if i != j else [F(0)] * n
    return mat


class TestRationalDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(rational_matrices())
    def test_cleared_bareiss_equals_fraction_elimination(self, mat):
        assert _rational_det(mat) == ref_fraction_det(mat)

    def test_singular_identity_case(self):
        # M^2 m_i d_ij - g_i g_j is singular when M^2 = sum g_i^2 / m_i,
        # and so is the closed form
        gs, ms = [F(1), F(1)], [F(1, 2), F(1, 2)]
        assert determinant_identity_check(gs, ms, F(2)) == 0.0
        mat = [[4 * ms[i] * (i == j) - gs[i] * gs[j] for j in range(2)]
               for i in range(2)]
        assert _rational_det(mat) == ref_fraction_det(mat) == 0
