"""Integer coefficient machinery: Stirling numbers, ladder reordering rows."""

import pytest

from dispersive_nphoton import combinatorics
from dispersive_nphoton.combinatorics import (
    c_coeff,
    commutator_poly,
    eval_int_poly,
    normal_order_aadag,
    stirling2,
)

# Reference rows, n = 1..4.  The "plus" rows carry k = 0..n; the "minus"
# rows carry k = 0..n-1 because the k = n entry vanishes identically.
CPLUS_ROWS = {
    1: (1, 2),
    2: (2, 2, 2),
    3: (6, 13, 3, 2),
    4: (24, 44, 46, 4, 2),
}
CMINUS_ROWS = {
    1: (1,),
    2: (2, 4),
    3: (6, 9, 9),
    4: (24, 56, 24, 16),
}


def s1(n, k):
    """Signed Stirling number of the first kind, read off the normal-ordering
    row: ``s1(n+1, k+1) = (-1)^(n+k) normal_order_aadag(n)[k]``."""
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"s1 index (n={n}, k={k}) out of range")
    if k == 0:
        return 1 if n == 0 else 0
    return (-1) ** (n + k) * normal_order_aadag(n - 1)[k - 1]


def falling_factorial_row(n):
    """Coefficients of ``x (x-1) ... (x-n+1)``, multiplied out one factor
    ``(x - i)`` at a time."""
    row = [1]
    for i in range(n):
        row = [a - i * b for a, b in zip([0] + row, row + [0])]
    return tuple(row)


class TestStirling:
    def test_first_kind_signed_values(self):
        assert s1(0, 0) == 1
        assert s1(3, 2) == -3
        assert s1(4, 2) == 11
        assert s1(5, 2) == -50
        assert s1(5, 3) == 35

    def test_second_kind_values(self):
        assert stirling2(0, 0) == 1
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25

    def test_row_edges(self):
        for n in range(1, 8):
            assert s1(n, 0) == 0
            assert s1(n, n) == 1
            assert stirling2(n, 0) == 0
            assert stirling2(n, n) == 1

    def test_first_kind_recurrence(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                assert s1(n + 1, k) == s1(n, k - 1) - n * s1(n, k)

    def test_second_kind_recurrence(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                assert stirling2(n + 1, k) == k * stirling2(n, k) + stirling2(
                    n, k - 1
                )

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            normal_order_aadag(-1)
        with pytest.raises(ValueError):
            stirling2(3, 4)


    def test_each_row_is_built_once(self):
        # Every order reads one shared triangle per kind, not a table of its own.
        row = combinatorics._s1_row(30)
        c_coeff(40, 3, "plus")
        normal_order_aadag(45)
        assert combinatorics._s1_row(30) is row
        for rows in (combinatorics._S1_ROWS, combinatorics._S2_ROWS):
            assert list(rows) == list(range(len(rows)))
        s2_row = combinatorics._s2_row(20)
        stirling2(35, 4)
        assert combinatorics._s2_row(20) is s2_row


class TestCCoeff:
    @pytest.mark.parametrize("n", sorted(CPLUS_ROWS))
    def test_plus_rows(self, n):
        assert tuple(c_coeff(n, k, "plus") for k in range(n + 1)) == CPLUS_ROWS[n]

    @pytest.mark.parametrize("n", sorted(CMINUS_ROWS))
    def test_minus_rows(self, n):
        assert tuple(c_coeff(n, k, "minus") for k in range(n)) == CMINUS_ROWS[n]

    def test_minus_top_coefficient_vanishes(self):
        for n in range(1, 13):
            assert c_coeff(n, n, "minus") == 0

    def test_plus_minus_difference_is_twice_falling_factorial(self):
        # Both rows share the reordering part; they differ by the falling
        # factorial row: plus - minus = 2 * s1(n, k).
        for n in range(1, 13):
            row = falling_factorial_row(n)
            for k in range(n + 1):
                assert c_coeff(n, k, "plus") - c_coeff(n, k, "minus") == 2 * row[k]

    def test_constant_term_is_factorial(self):
        fact = 1
        for n in range(1, 13):
            fact *= n
            assert c_coeff(n, 0, "plus") == fact
            assert c_coeff(n, 0, "minus") == fact

    def test_bad_sign_and_range(self):
        with pytest.raises(ValueError):
            c_coeff(2, 1, "pm")
        with pytest.raises(ValueError):
            c_coeff(0, 0, "plus")
        with pytest.raises(ValueError):
            c_coeff(2, 3, "plus")


class TestReorderingRows:
    def test_normal_order_rows(self):
        assert normal_order_aadag(1) == (1, 1)
        assert normal_order_aadag(2) == (2, 3, 1)
        assert normal_order_aadag(3) == (6, 11, 6, 1)
        assert normal_order_aadag(4) == (24, 50, 35, 10, 1)

    def test_falling_factorial_rows(self):
        assert tuple(s1(1, k) for k in range(2)) == (0, 1)
        assert tuple(s1(2, k) for k in range(3)) == (0, -1, 1)
        assert tuple(s1(3, k) for k in range(4)) == (0, 2, -3, 1)

    def test_normal_order_matches_product_evaluation(self):
        # a^n adag^n |j> = (j+1)(j+2)...(j+n) |j>.
        for n in range(1, 8):
            row = normal_order_aadag(n)
            for j in range(6):
                expected = 1
                for i in range(1, n + 1):
                    expected *= j + i
                assert eval_int_poly(row, j) == expected

    def test_falling_factorial_matches_product_evaluation(self):
        # adag^n a^n |j> = j(j-1)...(j-n+1) |j>.
        for n in range(1, 8):
            row = [s1(n, k) for k in range(n + 1)]
            for j in range(8):
                expected = 1
                for i in range(n):
                    expected *= j - i
                assert eval_int_poly(row, j) == expected

    def test_commutator_poly_shapes_and_values(self):
        for n in range(1, 8):
            cplus, cminus = commutator_poly(n)
            assert len(cplus) == n + 1
            assert len(cminus) == n
            assert all(isinstance(v, int) for v in cplus + cminus)
        cplus, cminus = commutator_poly(3)
        assert cplus == CPLUS_ROWS[3]
        assert cminus == CMINUS_ROWS[3]


@pytest.mark.parametrize("n", [0, -1])
def test_commutator_poly_needs_positive_order(n):
    with pytest.raises(ValueError, match="n >= 1"):
        commutator_poly(n)


class TestEvalIntPoly:
    def test_exact_integer_horner(self):
        assert eval_int_poly((24, 44, 46, 4, 2), 10) == 24 + 440 + 4600 + 4000 + 20000
        assert eval_int_poly((), 7) == 0
        assert eval_int_poly((5,), 0) == 5

    def test_large_arguments_stay_exact(self):
        # Exact integers well beyond float precision.
        value = eval_int_poly((1, 1, 1), 10**9)
        assert value == 1 + 10**9 + 10**18
