"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expected values are
frozen from independent oracles (bit-level reference construction, dense
Python-int arithmetic, per-element bit counts) or asserted exactly where
the formulas are closed-form.
"""

import time

import numpy as np
import pytest

from ccmatrix.bitstream import U64_MAX, bit_length
from ccmatrix.cmatrix import CompressedMatrix
from ccmatrix.container import dump_bytes, load_bytes
from ccmatrix.efficiency import (
    compare,
    eta1,
    eta2,
    eta2_prob,
    expected_eta2,
    measure,
    solve_two_point,
)
from ccmatrix.errors import ArithmeticOverflow, BadMagic, TruncatedPayload
from ccmatrix.experiments import run_experiment, run_mixture_grid, table_preset, write_csv
from ccmatrix.genmat import Constant, Uniform, replicate_efficiency, sample_matrix
from ccmatrix.sm import SmMatrix
from ccmatrix.vlb import VlbMatrix

from conftest import WORKED_ROW

SEED = 20240831


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


# -- criterion 1 -----------------------------------------------------------


def test_criterion_01_golden_bit_layout():
    t0 = time.perf_counter()
    m = SmMatrix.compress([WORKED_ROW])
    word0 = (
        900
        + 1023 * 2**10
        + 721 * 2**20
        + 256 * 2**30
        + 1 * 2**40
        + 10 * 2**50
        + (700 % 16) * 2**60
    )
    word1 = (700 // 16) + 20 * 2**6
    golden = word0.to_bytes(8, "little") + word1.to_bytes(8, "little")
    ok = (
        m.width == 10
        and m.data.words[:-1].tolist() == [word0, word1]
        and m.data.to_bytes() == golden
    )
    elapsed = time.perf_counter() - t0
    report(1, "golden fixed-width bit layout", ok and elapsed < 1.0, f"({elapsed:.3f}s)")


# -- criterion 2 -----------------------------------------------------------


def test_criterion_02_worked_example_bit_counts_vlb_91_not_87():
    t0 = time.perf_counter()
    sm_bits = SmMatrix.compress([WORKED_ROW]).bits_used
    vlb_bits = VlbMatrix.compress([WORKED_ROW]).bits_used
    # independent per-element oracle: 4-bit prefix + exact bit-length each
    oracle_bits = sum(4 + max(1, len(bin(v)[2:])) for v in WORKED_ROW)
    ok = sm_bits == 80 and oracle_bits == 91 and vlb_bits == oracle_bits
    elapsed = time.perf_counter() - t0
    report(
        2,
        "worked example costs 80 (fixed) / 91 (prefixed; 87 is sometimes quoted)",
        ok and elapsed < 1.0,
        f"({elapsed:.3f}s)",
    )


# -- criteria 3 and 4 share one generated suite ----------------------------


@pytest.fixture(scope="module")
def roundtrip_suite():
    rng = np.random.default_rng(SEED)
    roundtrip_ok = True
    probes_ok = True
    eta_identity_ok = True
    probes = 0
    t0 = time.perf_counter()
    matrices = []
    for i in range(1000):
        b = i % 64 + 1
        r = int(rng.integers(1, 65))
        c = int(rng.integers(1, 65))
        dense = rng.integers(0, 2**b, size=(r, c), dtype=np.uint64)
        dense[rng.integers(0, r), rng.integers(0, c)] = (1 << b) - 1  # pin the max
        sm = SmMatrix.compress(dense)
        vlb = VlbMatrix.compress(dense)
        matrices.append((dense, sm, vlb))
        roundtrip_ok &= bool((sm.decompress() == dense).all())
        roundtrip_ok &= bool((vlb.decompress() == dense).all())
        for _ in range(50):
            i_, j_ = int(rng.integers(0, r)), int(rng.integers(0, c))
            probes_ok &= sm.get(i_, j_) == int(dense[i_, j_])
            probes_ok &= vlb.get(i_, j_) == int(dense[i_, j_])
            probes += 2
    elapsed = time.perf_counter() - t0

    for dense, sm, vlb in matrices[::7]:  # criterion 4 identity on a spread
        rep_sm = measure(sm)
        eta_identity_ok &= rep_sm.eta == eta1(sm.width)
        rep_vlb = measure(vlb)
        eta_identity_ok &= rep_vlb.eta == eta2(rep_vlb.histogram, rep_vlb.k)
    full_identity = all(
        measure(sm).eta == eta1(sm.width)
        and measure(vlb).eta == eta2(measure(vlb).histogram, vlb.k)
        for dense, sm, vlb in matrices[:50]
    )
    return {
        "roundtrip_ok": roundtrip_ok,
        "probes_ok": probes_ok,
        "probes": probes,
        "elapsed": elapsed,
        "eta_identity_ok": eta_identity_ok and full_identity,
    }


def test_criterion_03_lossless_roundtrip_suite(roundtrip_suite):
    s = roundtrip_suite
    ok = s["roundtrip_ok"] and s["probes_ok"] and s["probes"] == 100_000
    ok = ok and s["elapsed"] < 30.0
    report(3, "lossless roundtrips + random access", ok, f"({s['elapsed']:.1f}s, {s['probes']} probes)")


def test_criterion_04_measured_equals_analytic(roundtrip_suite):
    report(4, "measured eta equals analytic eta exactly", roundtrip_suite["eta_identity_ok"])


# -- criterion 5 -----------------------------------------------------------


def test_criterion_05_probability_table():
    t0 = time.perf_counter()
    table = [
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
    ok = all(
        abs(eta2_prob({1: p1, 64: p2}, 7) - expected) <= 1e-3
        for p1, p2, expected in table
    )
    elapsed = time.perf_counter() - t0
    report(5, "11-row probability table to 3 decimals", ok and elapsed < 1.0, f"({elapsed:.3f}s)")


# -- criterion 6 -----------------------------------------------------------


def test_criterion_06_theoretical_efficiencies():
    ok = abs(expected_eta2(32.5, 7) - 0.3828) <= 1e-4
    ok = ok and expected_eta2(32, 7) == 25 / 64
    ok = ok and abs(expected_eta2(32, 7) - 0.390625) <= 1e-4
    report(6, "theoretical mean-bit-length efficiencies", ok)


# -- criterion 7 -----------------------------------------------------------

# printed replication tables: {param: (mean, sd)} per size column; the
# large-size column lists means only (matched within +/- 0.001)
TABLE3 = {
    100: {1: (0.8750, 0.0000), 8: (0.8202, 0.0031), 16: (0.7580, 0.0066),
          32: (0.6330, 0.0142), 64: (0.3826, 0.0288)},
    10_000: {1: (0.8750, 0.0000), 8: (0.8203, 0.0003), 16: (0.7578, 0.0007),
             32: (0.6329, 0.0014), 64: (0.3828, 0.0028)},
    1_000_000: {1: 0.8750, 8: 0.8203, 16: 0.7578, 32: 0.6328, 64: 0.3828},
}
TABLE4 = {
    100: {1: (0.8828, 0.0004), 8: (0.8283, 0.0022), 16: (0.7656, 0.0032),
          32: (0.6406, 0.0045), 64: (0.3910, 0.0065)},
    10_000: {1: (0.8828, 0.0004), 8: (0.8281, 0.0002), 16: (0.7656, 0.0003),
             32: (0.6406, 0.0004), 64: (0.3906, 0.0006)},
    1_000_000: {1: 0.8828, 8: 0.8281, 16: 0.7656, 32: 0.6406, 64: 0.3906},
}
TABLE5 = {
    100: {1: (0.8751, 0.0015), 8: (0.7654, 0.0046), 16: (0.6405, 0.0064),
          32: (0.3908, 0.0087)},
    10_000: {1: (0.8750, 0.0004), 8: (0.7656, 0.0005), 16: (0.6406, 0.0006),
             32: (0.3906, 0.0009)},
    1_000_000: {1: 0.8750, 8: 0.7656, 16: 0.6406, 32: 0.3906},
}


def test_criterion_07_replication_tables_desk_scale():
    t0 = time.perf_counter()
    failures = []
    for table_num, printed in ((3, TABLE3), (4, TABLE4), (5, TABLE5)):
        dists = table_preset(table_num)
        rows = run_experiment(dists, sizes=(100, 10_000), replicates=200, seed=SEED)
        for row in rows:
            mean, sd = printed[row["size"]][row["param"]]
            got = float(row["eta2_mean"])
            if not abs(got - mean) <= 3 * sd:
                failures.append(
                    f"t{table_num} {row['distribution']} size {row['size']}: "
                    f"{got:.4f} vs {mean:.4f}+-3x{sd:.4f}"
                )
        for label, param, dist in dists:
            got = replicate_efficiency(dist, 1_000_000, 1, seed=SEED).eta2_mean
            mean = printed[1_000_000][param]
            if not abs(got - mean) <= 0.001:
                failures.append(f"t{table_num} {label} size 1e6: {got:.4f} vs {mean:.4f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    report(7, "replication tables at desk scale", ok, f"({elapsed:.1f}s) {failures[:4]}")


# -- criterion 8 -----------------------------------------------------------


def test_criterion_08_group_count_checks():
    ok = abs(eta2({1: 7, 32: 7, 64: 7}, 7) - 0.3854) <= 1e-4
    ok = ok and abs(eta2({1: 7, 16: 7, 32: 7, 48: 7, 64: 7}, 7) - 0.3875) <= 1e-4
    nine = {b: 3 for b in (1, 8, 16, 24, 32, 40, 48, 56, 64)}
    ok = ok and abs(eta2(nine, 7) - 0.3888) <= 1e-4
    report(8, "uniform group-count efficiencies", ok)


# -- criterion 9 -----------------------------------------------------------


def test_criterion_09_constant_bitlength_dominance():
    ok = all(
        compare({b: 9}, b, bit_length(b)) == bit_length(b) / 64 > 0
        for b in range(1, 64)
    )
    ok = ok and eta1(64) == 0.0
    for b in range(1, 65):  # generated matrices agree with the analytic gap
        dense = sample_matrix(Constant(b), 4, 4, seed=SEED + b)
        d = (
            measure(CompressedMatrix.compress(dense)).eta
            - measure(CompressedMatrix.compress(dense, method="vlb")).eta
        )
        ok = ok and d == bit_length(b) / 64
    report(9, "fixed-width dominance at constant bit-length", ok)


# -- criterion 10 ----------------------------------------------------------


def test_criterion_10_two_point_solver():
    zero = solve_two_point(0.0, 1, 64, 7)
    ok = zero.feasible and abs(zero.p1 - 0.1111) <= 1e-4 and abs(zero.p2 - 0.8889) <= 1e-4
    seven = solve_two_point(50 / 64, 1, 64, 7)  # weighted-length equation rhs 7
    ok = ok and seven.feasible
    ok = ok and abs(seven.p1 - 0.9048) <= 1e-3 and abs(seven.p2 - 0.0952) <= 1e-3
    report(10, "two-point probability solver", ok)


# -- criterion 11 ----------------------------------------------------------


def test_criterion_11_sweep_share(tmp_path):
    t0 = time.perf_counter()
    values = list(range(1, 64, 4))  # 16 values per axis, 65,536 points
    rows, sm_count = run_mixture_grid(values, w=0.5, sample_size=10_000, seed=SEED)
    share = sm_count / len(rows)
    elapsed = time.perf_counter() - t0
    write_csv(
        tmp_path / "sweep.csv",
        ("alpha1", "beta1", "alpha2", "beta2", "mean_bitlen", "eta1", "eta2", "D"),
        rows,
        comments=(
            f"grid step=4 lo=1 hi=64 points={len(rows)} sample_size=10000 w=0.5 seed={SEED}",
            f"sm_favored={sm_count} share={100 * share:.4f}%",
        ),
    )
    ok = 0.006 <= share <= 0.012 and elapsed < 600.0
    report(
        11,
        "mixture-grid share favoring the fixed-width codec in [0.6%, 1.2%]",
        ok,
        f"(share={100 * share:.4f}%, {elapsed:.1f}s)",
    )


# -- criterion 12 ----------------------------------------------------------


def test_criterion_12_arithmetic_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ok = True

    def rand_compressed(r, c, hi=2**24):
        dense = [[int(v) for v in row] for row in rng.integers(0, hi, size=(r, c))]
        method = "vlb" if rng.integers(2) else "sm"
        order = "col" if rng.integers(2) else "row"
        return dense, CompressedMatrix.compress(dense, method=method, order=order)

    for _ in range(200):
        r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a, ca = rand_compressed(r, c)
        b, cb = rand_compressed(r, c)
        ok &= ca.add(cb).decompress().tolist() == [
            [x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)
        ]
        s = int(rng.integers(0, 2**12))
        ok &= ca.scalar_mul(s).decompress().tolist() == [[x * s for x in row] for row in a]
        ok &= ca.transpose().decompress().tolist() == [
            [a[i][j] for i in range(r)] for j in range(c)
        ]
        k = int(rng.integers(1, 9))
        d, cd = rand_compressed(c, k)
        ok &= ca.matmul(cd).decompress().tolist() == [
            [sum(a[i][l] * d[l][j] for l in range(c)) for j in range(k)]
            for i in range(r)
        ]

    for bad_op in (
        lambda: CompressedMatrix.compress([[U64_MAX]]).add(CompressedMatrix.compress([[1]])),
        lambda: CompressedMatrix.compress([[2**63]]).scalar_mul(2),
        lambda: CompressedMatrix.compress([[2**32]]).matmul(CompressedMatrix.compress([[2**32]])),
    ):
        try:
            bad_op()
            ok = False
        except ArithmeticOverflow:
            pass

    elapsed = time.perf_counter() - t0
    report(12, "compressed arithmetic equals dense oracle", ok and elapsed < 30.0, f"({elapsed:.1f}s)")


# -- criterion 13 ----------------------------------------------------------


def test_criterion_13_container_roundtrip():
    rng = np.random.default_rng(SEED)
    ok = True
    for i in range(100):
        r, c = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        dense = sample_matrix(Uniform(1, int(rng.integers(1, 65))), r, c, seed=SEED + i)
        method = "vlb" if i % 2 else "sm"
        order = "col" if i % 3 == 0 else "row"
        m = CompressedMatrix.compress(dense, method=method, order=order)
        again = load_bytes(dump_bytes(m))
        ok &= again.inner == m.inner and bool((again.decompress() == dense).all())

    blob = bytearray(dump_bytes(CompressedMatrix.compress([WORKED_ROW])))
    blob[1] = 0x00
    try:
        load_bytes(bytes(blob))
        ok = False
    except BadMagic:
        pass
    try:
        load_bytes(dump_bytes(CompressedMatrix.compress([WORKED_ROW]))[:-4])
        ok = False
    except TruncatedPayload:
        pass
    report(13, "container save/load is bit-exact and validated", ok)
