import numpy as np
import pytest
from scipy import stats

from ccmatrix.bitstream import bit_length
from ccmatrix.genmat import (
    BetaMixture,
    Binomial,
    Constant,
    PoissonTrunc,
    TwoPoint,
    Uniform,
    derive_seed,
    mixture_moments,
    replicate_efficiency,
    sample_bitlens,
    sample_matrix,
    unit_to_bitlen,
)

ALL_DISTS = [
    BetaMixture(2.0, 5.0, 40.0, 3.0, 0.7),
    Uniform(3, 17),
    Binomial(16, 0.4),
    PoissonTrunc(12.0),
    Constant(9),
    TwoPoint(4, 50, 0.3),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_sampling_is_deterministic(dist):
    a = sample_bitlens(dist, 500, seed=99)
    b = sample_bitlens(dist, 500, seed=99)
    assert (a == b).all()
    if not isinstance(dist, Constant):
        c = sample_bitlens(dist, 500, seed=100)
        assert not (a == c).all()


def test_unit_transform_edges():
    assert unit_to_bitlen(0.0) == 1
    assert unit_to_bitlen(0.999) == 64
    assert unit_to_bitlen(1.0) == 64  # the raw map would give 65; clamped
    assert unit_to_bitlen([0.0, 0.5, 1.0]).tolist() == [1, 33, 64]


def test_constant_sampling():
    assert sample_bitlens(Constant(10), 8, seed=1).tolist() == [10] * 8


def test_uniform_mean_at_scale():
    bl = sample_bitlens(Uniform(1, 64), 1_000_000, seed=5)
    assert bl.min() >= 1 and bl.max() <= 64
    assert abs(bl.mean() - 32.5) < 0.1


def test_beta_mixture_range_extremes():
    for dist in (BetaMixture(0.5, 0.5, 0.5, 0.5), BetaMixture(64, 1, 1, 64, 0.5)):
        bl = sample_bitlens(dist, 100_000, seed=11)
        assert bl.min() >= 1
        assert bl.max() <= 64


def test_binomial_keeps_raw_zeros():
    bl = sample_bitlens(Binomial(1, 0.5), 2000, seed=3)
    assert set(np.unique(bl)) == {0, 1}


def test_poisson_truncated_by_redraw():
    n = 50_000
    bl = sample_bitlens(PoissonTrunc(60.0), n, seed=4)
    assert bl.max() <= 64
    assert bl.min() >= 0
    # re-drawing leaves the conditional mass at the cap, not the whole tail
    expected = stats.poisson.pmf(64, 60.0) / stats.poisson.cdf(64, 60.0)
    share = (bl == 64).mean()
    se = np.sqrt(expected * (1 - expected) / n)
    assert abs(share - expected) < 4 * se
    assert share < stats.poisson.sf(63, 60.0)  # capping would pile this up


def test_two_point_frequencies():
    bl = sample_bitlens(TwoPoint(4, 50, 0.3), 100_000, seed=6)
    assert set(np.unique(bl)) <= {4, 50}
    assert abs((bl == 4).mean() - 0.3) < 0.01


def test_parameter_validation():
    with pytest.raises(ValueError):
        Uniform(0, 64)
    with pytest.raises(ValueError):
        Uniform(9, 3)
    with pytest.raises(ValueError):
        Binomial(65)
    with pytest.raises(ValueError):
        PoissonTrunc(0.0)
    for lam in (float("nan"), 65.0, 500.0):  # NaN, or a mean whose tail re-draws never end
        with pytest.raises(ValueError):
            PoissonTrunc(lam)
    with pytest.raises(ValueError):
        PoissonTrunc(16.0, max_bitlen=8)
    with pytest.raises(ValueError):
        BetaMixture(1, 1, 1, 1, w=1.5)
    for bad in (float("nan"), float("inf")):  # numpy would sample garbage bit-lengths
        for i in range(4):
            shapes = [1.0] * 4
            shapes[i] = bad
            with pytest.raises(ValueError):
                BetaMixture(*shapes)
    with pytest.raises(ValueError):
        Constant(0)
    with pytest.raises(ValueError):
        TwoPoint(1, 64, -0.1)


def test_mixture_moments_degenerate_cases():
    m = mixture_moments(5, 3, 2, 7, w=0.0)
    assert m.mean == 2 / 9
    assert m.variance == pytest.approx(2 * 7 / (81 * 10))
    same = mixture_moments(4, 4, 4, 4, w=0.5)
    assert same.mean == 0.5
    assert same.variance == pytest.approx(16 / (64 * 9))


def test_mixture_moments_symmetric_mean():
    m = mixture_moments(1, 32, 32, 1, w=0.5)
    assert m.mean == pytest.approx(0.5)


def test_mixture_moments_monte_carlo_oracle():
    """Independent draw of the mixture validates mean and variance at 3 SE."""
    a1, b1, a2, b2, w = 1.0, 32.0, 32.0, 1.0, 0.5
    n = 1_000_000
    oracle_rng = np.random.default_rng(2718)
    pick = oracle_rng.random(n) < w
    x = np.where(pick, oracle_rng.beta(a1, b1, n), oracle_rng.beta(a2, b2, n))
    mom = mixture_moments(a1, b1, a2, b2, w)
    se_mean = x.std(ddof=1) / np.sqrt(n)
    assert abs(x.mean() - mom.mean) < 3 * se_mean
    v = x.var(ddof=1)
    m4 = ((x - x.mean()) ** 4).mean()
    se_var = np.sqrt((m4 - v * v) / n)
    assert abs(v - mom.variance) < 3 * se_var


def test_transformed_mean_tracks_mixture_mean():
    """Empirical bit-length mean ~ 64 * mixture mean + 0.5 (discretization slack)."""
    for params in ((2.0, 5.0, 9.0, 4.0, 0.25), (1.0, 1.0, 1.0, 1.0, 0.5)):
        dist = BetaMixture(*params)
        n = 1_000_000
        bl = sample_bitlens(dist, n, seed=17)
        target = 64 * mixture_moments(*params).mean + 0.5
        se = bl.std(ddof=1) / np.sqrt(n)
        assert abs(bl.mean() - target) <= 3 * se + 0.5


def test_sample_matrix_constant_one_is_bits():
    m = sample_matrix(Constant(1), 16, 16, seed=8)
    assert set(np.unique(m)) <= {0, 1}
    assert m.shape == (16, 16)


def test_sample_matrix_realizes_exact_bitlengths():
    for b in (2, 10, 17, 63, 64):
        m = sample_matrix(Constant(b), 8, 8, seed=b)
        lo, hi = 1 << (b - 1), (1 << b) - 1
        vals = m.ravel().tolist()
        assert all(lo <= v <= hi for v in vals)
        assert all(bit_length(v) == b for v in vals)


def test_sample_matrix_constant_ten_range():
    m = sample_matrix(Constant(10), 10, 10, seed=0)
    assert m.min() >= 512 and m.max() <= 1023


def test_sample_matrix_zero_bitlength_maps_to_zero():
    m = sample_matrix(Binomial(1, 0.5), 40, 40, seed=12)
    assert set(np.unique(m)) <= {0, 1}


def test_sample_matrix_bitlength_histogram_chi_square():
    """Realized bit-lengths follow the requested distribution (alpha = 0.01)."""
    rows = cols = 100
    m = sample_matrix(Uniform(1, 8), rows, cols, seed=23)
    observed = np.bincount(
        [bit_length(int(v)) for v in m.ravel()], minlength=9
    )[1:9]
    _, p = stats.chisquare(observed)
    assert p > 0.01

    m2 = sample_matrix(TwoPoint(3, 7, 0.25), rows, cols, seed=24)
    lens = np.array([bit_length(int(v)) for v in m2.ravel()])
    observed2 = np.array([(lens == 3).sum(), (lens == 7).sum()])
    _, p2 = stats.chisquare(observed2, f_exp=[0.25 * lens.size, 0.75 * lens.size])
    assert p2 > 0.01


def test_replicate_efficiency_deterministic():
    a = replicate_efficiency(Uniform(1, 64), 1000, 20, seed=31)
    b = replicate_efficiency(Uniform(1, 64), 1000, 20, seed=31)
    assert a == b


def test_replicate_efficiency_uniform_law():
    s = replicate_efficiency(Uniform(1, 64), 100_000, 5, seed=41)
    assert abs(s.eta2_mean - 0.3828) < 0.002
    assert s.replicates == 5 and s.size == 100_000
    # the max bit-length 64 is essentially always observed at this size
    assert s.eta1_mean == 0.0


def test_replicate_efficiency_single_replicate_sd_zero():
    s = replicate_efficiency(Uniform(1, 64), 1000, 1, seed=2)
    assert s.eta2_sd == 0.0 and s.eta1_sd == 0.0


def test_replicate_efficiency_derived_k():
    s = replicate_efficiency(Constant(10), 100, 5, seed=3, k=None)
    # all bit-lengths are 10, so the derived prefix width is 4
    assert s.eta2_mean == 1 - 10 / 64 - 4 / 64
    assert s.eta1_mean == (64 - 10) / 64


def test_replicate_sd_shrinks_with_size():
    sds = [
        replicate_efficiency(Uniform(1, 64), size, 60, seed=51).eta2_sd
        for size in (100, 10_000, 1_000_000)
    ]
    assert sds[0] > sds[1] > sds[2]
    # roughly 1/sqrt(size): each hundredfold step shrinks SD about tenfold
    assert 4 < sds[0] / sds[1] < 25
    assert 4 < sds[1] / sds[2] < 25


def test_derive_seed_scheme():
    assert derive_seed(10, 0) == 10
    assert derive_seed(10, 3) == 10 ^ 3
    assert derive_seed(2**64 - 1, 1) == 2**64 - 2
