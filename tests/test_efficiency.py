from fractions import Fraction

import pytest

from ccmatrix.bitstream import bit_length
from ccmatrix.cmatrix import CompressedMatrix
from ccmatrix.efficiency import (
    compare,
    eta1,
    eta2,
    eta2_prob,
    expected_eta2,
    measure,
    solve_two_point,
)
from ccmatrix.genmat import Constant, Uniform, sample_matrix


# combinations of (p1, p2) over bit-lengths {1, 64} and the efficiency each yields
PROB_TABLE = [
    (0.0, 1.0, -0.109),
    (0.1, 0.9, -0.010),
    (0.2, 0.8, 0.087),
    (0.3, 0.7, 0.185),
    (0.4, 0.6, 0.284),
    (0.5, 0.5, 0.382),
    (0.6, 0.4, 0.481),
    (0.7, 0.3, 0.579),
    (0.8, 0.2, 0.678),
    (0.9, 0.1, 0.776),
    (1.0, 0.0, 0.875),
]


def test_eta1_known_values():
    assert eta1(64) == 0.0
    assert eta1(1) == 0.984375  # 63/64: even a one-bit matrix keeps one bit per element
    assert eta1(10) == 0.84375


def test_eta1_validation():
    for bad in (0, 65, -3):
        with pytest.raises(ValueError):
            eta1(bad)


def test_eta2_two_group_half_and_half():
    assert abs(eta2({1: 50, 64: 50}, 7) - 0.3829) <= 1e-4
    assert eta2({1: 50, 64: 50}, 7) == float(1 - Fraction(65, 128) - Fraction(7, 64))


def test_eta2_uniform_groups():
    # equal-frequency groups: value is independent of the common frequency
    for n in (1, 10, 1000):
        assert abs(eta2({1: n, 32: n, 64: n}, 7) - 0.3854) <= 1e-4
        assert abs(eta2({1: n, 16: n, 32: n, 48: n, 64: n}, 7) - 0.3875) <= 1e-4
    nine = {b: 5 for b in (1, 8, 16, 24, 32, 40, 48, 56, 64)}
    assert abs(eta2(nine, 7) - 0.3888) <= 1e-4


def test_eta2_accepts_zero_bitlength_key():
    # raw binomial/poisson samples may contain zeros
    assert eta2({0: 50, 1: 50}, 7) == float(1 - Fraction(1, 128) - Fraction(7, 64))


def test_eta2_validation():
    with pytest.raises(ValueError):
        eta2({}, 7)
    with pytest.raises(ValueError):
        eta2({5: 0}, 7)
    with pytest.raises(ValueError):
        eta2({65: 3}, 7)
    with pytest.raises(ValueError):
        eta2({5: 3}, 0)


@pytest.mark.parametrize("p1,p2,expected", PROB_TABLE)
def test_eta2_prob_table(p1, p2, expected):
    assert abs(eta2_prob({1: p1, 64: p2}, 7) - expected) <= 1e-3


def test_eta2_prob_validation():
    with pytest.raises(ValueError):
        eta2_prob({1: 0.5, 64: 0.6}, 7)
    with pytest.raises(ValueError):
        eta2_prob({}, 7)
    with pytest.raises(ValueError):
        eta2_prob({1: float("nan"), 64: 1.0}, 7)


def test_expected_eta2_known_values():
    assert abs(expected_eta2(32.5, 7) - 0.3828) <= 1e-4
    assert expected_eta2(32, 7) == 25 / 64  # binomial(64, 0.5) mean
    assert expected_eta2(32, 7) == 0.390625  # truncated poisson mean 32
    with pytest.raises(ValueError):
        expected_eta2(65, 7)


def test_compare_constant_bitlength_is_prefix_cost():
    for b in range(1, 64):
        d = compare({b: 17}, b, bit_length(b))
        assert d == bit_length(b) / 64
        assert d > 0
    assert eta1(64) == 0.0  # at 64 bits the fixed-width codec saves nothing


def test_compare_two_point_favors_vlb():
    d = compare({1: 10, 64: 10}, 64, 7)
    assert d == 0.0 - 0.3828125
    assert d < 0
    # compare validates its histogram as eta2 does
    for histogram, max_bitlen in (({100: 1}, 64), ({3: -5, 4: 10}, 8), ({3: 1.5}, 8)):
        with pytest.raises(ValueError):
            compare(histogram, max_bitlen)


def test_solve_two_point_minimal_efficiency():
    res = solve_two_point(0.0, 1, 64, 7)
    assert res.feasible
    assert abs(res.p1 - 0.1111) <= 1e-4
    assert abs(res.p2 - 0.8889) <= 1e-4
    assert abs(res.p1 + res.p2 - 1) < 1e-12


def test_solve_two_point_rhs_seven_system():
    # target 50/64 makes the weighted-length equation p1 + 64 p2 = 7
    res = solve_two_point(50 / 64, 1, 64, 7)
    assert res.feasible
    assert abs(res.p1 - 0.9048) <= 1e-3
    assert abs(res.p2 - 0.0952) <= 1e-3


def test_solve_two_point_all_mass_on_one():
    res = solve_two_point(0.875, 1, 64, 7)
    assert res.feasible
    assert res.p1 == pytest.approx(1.0, abs=1e-12)
    assert res.p2 == pytest.approx(0.0, abs=1e-12)


def test_solve_two_point_infeasible_flag_not_exception():
    res = solve_two_point(1.0, 1, 64, 7)  # would need negative mass
    assert not res.feasible


def test_solve_two_point_equal_lengths_rejected():
    with pytest.raises(ValueError):
        solve_two_point(0.5, 8, 8, 7)


def test_measure_sm_worked_row(worked_row):
    rep = measure(CompressedMatrix.compress(worked_row))
    assert rep.method == "sm"
    assert rep.bits_allocated == 512
    assert rep.bits_used == 80
    assert rep.eta == (512 - 80) / 512
    assert rep.histogram == {1: 1, 4: 1, 5: 1, 9: 1, 10: 4}
    assert sum(rep.histogram.values()) == 8


def test_measure_vlb_worked_row(worked_row):
    rep = measure(CompressedMatrix.compress(worked_row, method="vlb"))
    assert rep.method == "vlb"
    assert rep.bits_used == 91
    assert rep.k == 4


def test_measure_all_ones_sm():
    rep = measure(CompressedMatrix.compress([[1] * 8] * 8))
    assert rep.bits_used == 64
    assert rep.eta == 63 / 64


def test_measure_agrees_with_analytic_exactly(rng):
    """Zero-tolerance identity between measured and analytic efficiency."""
    for seed in range(30):
        b = 1 + seed * 2 % 64
        dense = sample_matrix(Uniform(1, max(1, b)), 6, 7, seed)
        sm = CompressedMatrix.compress(dense)
        rep = measure(sm)
        assert rep.eta == eta1(sm.inner.width)
        vlb = CompressedMatrix.compress(dense, method="vlb")
        repv = measure(vlb)
        assert repv.eta == eta2(repv.histogram, repv.k)


def test_measure_constant_matrices_match_analytic():
    for b in (1, 2, 7, 33, 64):
        dense = sample_matrix(Constant(b), 5, 5, seed=b)
        d = measure(CompressedMatrix.compress(dense)).eta - measure(
            CompressedMatrix.compress(dense, method="vlb")
        ).eta
        assert d == bit_length(b) / 64


def test_eta2_monotone_in_mass_shift(rng):
    """Moving one element to a larger bit-length strictly lowers efficiency."""
    for _ in range(50):
        lo, hi = sorted(rng.choice(range(1, 65), size=2, replace=False))
        f_lo, f_hi = int(rng.integers(2, 50)), int(rng.integers(1, 50))
        before = eta2({int(lo): f_lo, int(hi): f_hi}, 7)
        after = eta2({int(lo): f_lo - 1, int(hi): f_hi + 1}, 7)
        assert after < before
