import hashlib
import tracemalloc

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


# SHA-256 of sample_matrix(dist, rows, cols, 4242).tobytes() for each of PIN_SHAPES,
# recorded from the realisation by whole-array masks, gathers and scatters that the
# table lookups replaced; the bench oracle recomputes its expectations from whatever
# sample_matrix returns, so only these pins catch a changed realisation.
PIN_SHAPES = [(1, 1), (7, 13), (91, 97), (250, 250)]  # 91 x 97 is past one block
PINNED = {
    Uniform(1, 1): (
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "c65e2c2f0025dad7b1c35206b8d952b0fefd0bc6b92e0de062ca54d4894501bb",
        "c7f30d25cc29e4904b2f804fa259568122a4bbdd9786b1e4914f27bcb56df5ae",
        "12716c4be8c4b1e90be462cd9c55c3b53b7d07d8e5c96e4dcc951bf863d2e56e",
    ),
    Uniform(1, 40): (
        "e82d3623c8a1544a90caef604b853053773327ee4d373a31de2f0e8262009e61",
        "908e23db591142a932ee89feb4e2d076d8e7535e6e14a4601c3e3ca7e8102b0a",
        "fadd6a06b4ee91f9ca1529ebc68ca3a4516cd526cb4de06a0ec978b6b9659825",
        "3fb2dee369124f370d2f2558f96f67061bc7d081885f8c80c22557e99f456b36",
    ),
    Uniform(58, 64): (
        "1c705c6ad699328f8733744fdf3989976cfa86bf6ff41fde2d36e64dfbe1b80c",
        "fdd8e6ea66b48aeb8d6bec0fb872e7812ca198763cfc53782103836a56c6fe0e",
        "2d465afc5b1ce918d6091d5550bb7ffeb062ca29e3289b95e3fc68b4d322b4a0",
        "5ed4edf0083469c332bce3a594aaaf52e6026b5765d955bcfae3a6bf03393252",
    ),
    Uniform(1, 64): (
        "601b49e8fd41bd765ce763c90d1433cb0590ac06eaae1ee2ad8d0d0b3398d7d1",
        "8d2b9d2cf2c5b7435b7ae017be4761dad341aff87aca07e1f5892410f3a92b81",
        "8268e1a70e6a8967e67a5a62b80b9779dcae55173d10cad2ac2e648ae37e91a3",
        "332e17190b230658f6d21bb9fd029971ed169dd1e6a9f3cec9a846048820ee36",
    ),
    Binomial(64, 0.5): (
        "0e548c6514b72789f2fecc3b7f56fef2ea35ef7b8672c43e110cfc92fe9b1f64",
        "24e7b8cc261d7e0721c74a781b9fcb9fe1025a8034dd0ae76e281783bdec13fe",
        "e4b02bb5390f0e73a545e8acbda2c3dd18ceaf2917b235d9664afff8d80e4b67",
        "824206305ddb0a3344728969811cc0a373956367552cd41a19dde8543b5a8b15",
    ),
    Binomial(3, 0.5): (
        "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
        "f646366865d21535c6e443fe85dc338f5b80146822e469ee782a58ae41ce2218",
        "66d508454a60f33dbcffd1eee8e463452fe0c556baf7d4cea9f45ad9b80c383e",
        "f0b02ab291872cc929c7d6ac36248860bab7aea9aaed3a92d4615a739c32cd96",
    ),
    PoissonTrunc(1): (
        "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
        "39dc7fd1bd56815e48785d396962bf3e69dc12ceaf16679a87a8f687a40b1882",
        "4ca1fcb7322a1bf906e1d7b501dc58f076ea0cb30183fd1f7eb560b454e5299a",
        "e1a27166d617e5c4bb94d2960113f4921eced47dbb2f1a231b383bb8ad98a717",
    ),
    PoissonTrunc(32): (
        "101b9832eacd1ed74c078428e2a0ce67f0107e1de2999d329c306abdf2f69553",
        "d8d82e085b2fda2c0938e695c744d48e1643826c846f2f6346044ee0f37de7aa",
        "a302305e62054300fe31d6e6c76b7abf429a72ea63266d55fd02cfe5ce1ee3da",
        "d79fe26d06453a5727c1615af29e2b92263bf65cb89e88be73728b37e036fd4f",
    ),
    Constant(1): (
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "c65e2c2f0025dad7b1c35206b8d952b0fefd0bc6b92e0de062ca54d4894501bb",
        "c7f30d25cc29e4904b2f804fa259568122a4bbdd9786b1e4914f27bcb56df5ae",
        "12716c4be8c4b1e90be462cd9c55c3b53b7d07d8e5c96e4dcc951bf863d2e56e",
    ),
    Constant(64): (
        "b27d899a615fdc4c97288610a8dd18c6218a6bd32a25338c5f1544423c78beac",
        "87322240c94387ab6573f8d273f8d8dc31964bb29cc169d19d215e151c553e23",
        "42aa4aa7cd704bbbb2228cdc2f92933aaf9fdb19f1f92b5b0558b66c81e24799",
        "48f4e5184dfbda7bbfec1e822a69554e08807a3384a1c8284baf17a022bb8cb6",
    ),
    TwoPoint(1, 64, 0.3): (
        "795541f833a12b7be70be4c0fdf4e8768ce39df9e269be5c896b226705d04acb",
        "4ee5156a5cad98b623afaec81f3eba7cc043339a2a7498f74883df4d4fb64244",
        "0d3ed3fd413c213b54b191e504aa93eaa931396bf695369238597b7f4c281fd3",
        "99cef63c5c665ea0536b8ecf98a0f45ec0078434af78a835e018ab378a63093e",
    ),
    BetaMixture(1, 1, 30, 2): (
        "7a25046080a600c1873a6737ea484e907e4cd88c24c277ba13288ee699052102",
        "87734a4a032dd2b3be03e117887dc5df2e8699e02d7aa976cce8c15a0a02baf3",
        "fcef35f553650677e62c57fb44f85578bdb725318a3db39240201d52f10c1aa9",
        "a9f096ed09a9ad5b608d62f2179f6248a96b923a735b9b6d1a24758b565a6466",
    ),
}


@pytest.mark.parametrize("dist", list(PINNED), ids=repr)
def test_sample_matrix_realisation_is_pinned(dist):
    got = [hashlib.sha256(sample_matrix(dist, r, c, 4242).tobytes()).hexdigest() for r, c in PIN_SHAPES]
    assert got == list(PINNED[dist])


def test_sample_matrix_memory_is_bounded():
    tracemalloc.start()
    try:
        m = sample_matrix(Uniform(1, 40), 1000, 1000, 4242)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, the drawn int64 bit-lengths and 1 MiB for the blocks; whole-array
    # masks, gathers and scatters peaked at 47.1 MiB
    assert peak <= m.nbytes + 8 * m.size + 2**20


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
