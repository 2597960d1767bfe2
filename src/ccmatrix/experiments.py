"""Replicated efficiency experiments and parameter-grid sweeps.

Everything here is deterministic given a base seed.  Each experiment
cell (distribution parameter x size) derives its stream as
``seed XOR (cell_index << 32)`` and each grid point as
``seed XOR (point_index << 16)``, keeping per-replicate streams
(``cell_seed XOR r``) disjoint across cells; results are therefore
independent of execution order.

That is what lets grid points and experiment cells run on every usable
core: numpy's samplers release the GIL, so the calling thread and one
helper thread per further core each take the next undone item, and the
rows are assembled in index order.  The output does not depend on the
thread count, which is why there is no setting for it.
"""

from __future__ import annotations

import csv
import os
import sys
import threading
from contextlib import nullcontext
from itertools import product

from .bitstream import U64_MAX, bit_length
from .efficiency import WORST_CASE_K, compare, eta1, eta2, expected_eta2
from .genmat import (
    BetaMixture,
    Binomial,
    BitLengthDist,
    PoissonTrunc,
    Uniform,
    replicate_efficiency,
    sample_bitlens,
)

DEFAULT_SIZES = (100, 10_000, 1_000_000)
DEFAULT_REPLICATES = 1000
SWEEP_DEFAULT_STEP = 4
SWEEP_DEFAULT_LO = 1
SWEEP_DEFAULT_HI = 64
SWEEP_DEFAULT_SAMPLE = 10_000

EXPERIMENT_FIELDS = (
    "distribution",
    "param",
    "size",
    "replicates",
    "eta2_mean",
    "eta2_sd",
    "eta1_mean",
    "eta1_sd",
    "seed",
)
MIXTURE_FIELDS = ("alpha1", "beta1", "alpha2", "beta2", "mean_bitlen", "eta1", "eta2", "D")
SINGLE_BETA_FIELDS = ("alpha", "beta", "mean_bitlen", "eta1", "eta2", "D")
CONSTANT_FIELDS = ("bitlen", "eta1", "eta2", "D")


def derive_cell_seed(seed: int, cell: int) -> int:
    return (seed ^ (cell << 32)) & U64_MAX


def derive_point_seed(seed: int, point: int) -> int:
    return (seed ^ (point << 16)) & U64_MAX


def table_preset(table: int) -> list[tuple[str, int, BitLengthDist]]:
    """Distribution rows for the three replication presets.

    Preset 3: discrete uniform on 1..n; preset 4: Binomial(n, 0.5);
    preset 5: truncated Poisson(lam).  The parameter column indexes the
    maximum (presets 3 and 4) or the expected (preset 5) bit-length.
    """
    if table == 3:
        return [(f"uniform(1,{n})", n, Uniform(1, n)) for n in (1, 8, 16, 32, 64)]
    if table == 4:
        return [(f"binomial({n},0.5)", n, Binomial(n, 0.5)) for n in (1, 8, 16, 32, 64)]
    if table == 5:
        return [(f"poisson({lam})", lam, PoissonTrunc(lam)) for lam in (1, 8, 16, 32)]
    raise ValueError(f"no preset table {table}")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map(fn, items) -> list:
    """``[fn(x) for x in items]``, computed on every usable core.

    The calling thread and one helper thread per further core (at most
    one thread per item; none on one core) each take the next undone index under a lock,
    so long and short items spread evenly.  After the first exception no
    new item starts and the helpers are joined.  Every item below a
    failed one has run by then, so the exception raised here is the one
    of the lowest failing index, as in a serial loop.
    """
    threads = min(_usable_cores(), len(items))
    out = [None] * len(items)
    errors = []
    lock = threading.Lock()
    taken = 0

    def work():
        nonlocal taken
        while True:
            with lock:
                if errors or taken == len(items):
                    return
                i = taken
                taken += 1
            try:
                out[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors.append((i, exc))
                return

    helpers = [threading.Thread(target=work, daemon=True) for _ in range(threads - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        with lock:
            taken = len(items)  # no new item starts, even on an interrupt
        for t in helpers:
            t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return out


def run_experiment(
    dists: list[tuple[str, int, BitLengthDist]],
    sizes=DEFAULT_SIZES,
    replicates: int = DEFAULT_REPLICATES,
    seed: int = 0,
    k: int | None = WORST_CASE_K,
) -> list[dict]:
    """One row per (distribution, size) with replicated efficiency stats."""
    cells = [(label, param, dist, size) for label, param, dist in dists for size in sizes]

    def cell_stats(c):
        dist, size = cells[c][2:]
        return replicate_efficiency(dist, size, replicates, derive_cell_seed(seed, c), k)

    rows = []
    for c, s in enumerate(_map(cell_stats, range(len(cells)))):
        label, param, _, size = cells[c]
        rows.append(
            {
                "distribution": label,
                "param": param,
                "size": size,
                "replicates": replicates,
                "eta2_mean": f"{s.eta2_mean:.6f}",
                "eta2_sd": f"{s.eta2_sd:.6f}",
                "eta1_mean": f"{s.eta1_mean:.6f}",
                "eta1_sd": f"{s.eta1_sd:.6f}",
                "seed": derive_cell_seed(seed, c),
            }
        )
    return rows


def _grid_point_row(dist: BitLengthDist, sample_size: int, seed: int):
    bl = sample_bitlens(dist, sample_size, seed)
    mean_b = float(bl.mean())
    max_b = max(1, int(bl.max()))
    e1 = eta1(max_b)
    e2 = expected_eta2(mean_b)  # the histogram formula, as sum(b*f)/total is the mean
    return mean_b, e1, e2, e1 - e2


def run_mixture_grid(
    values,
    w: float = 0.5,
    sample_size: int = SWEEP_DEFAULT_SAMPLE,
    seed: int = 0,
    axes: int = 4,
) -> tuple[list[dict], int]:
    """Sweep a Beta-mixture parameter grid; returns (rows, sm_favored_count).

    With ``axes=4`` each point is (alpha1, beta1, alpha2, beta2), every
    parameter taken from ``values``, and rows have MIXTURE_FIELDS.  With
    ``axes=2`` each point is (alpha, beta), sampled as the mixture of
    Beta(alpha, beta) with itself, and rows have SINGLE_BETA_FIELDS;
    ``w=0`` makes that a plain single-Beta draw (figure 6).  Every point's
    ``eta2`` charges the worst-case prefix width ``WORST_CASE_K``.
    """
    if axes not in (2, 4):
        raise ValueError(f"axes must be 2 or 4, got {axes}")
    names = (MIXTURE_FIELDS if axes == 4 else SINGLE_BETA_FIELDS)[:axes]
    points = list(product(values, repeat=axes))

    def point_stats(idx):
        params = points[idx] if axes == 4 else points[idx] * 2
        dist = BetaMixture(*params, w)
        return _grid_point_row(dist, sample_size, derive_point_seed(seed, idx))

    rows = []
    sm_favored = 0
    for params, (mean_b, e1, e2, d) in zip(points, _map(point_stats, range(len(points)))):
        if d >= 0:
            sm_favored += 1
        rows.append(
            {
                **dict(zip(names, params)),
                "mean_bitlen": f"{mean_b:.6f}",
                "eta1": f"{e1:.6f}",
                "eta2": f"{e2:.6f}",
                "D": f"{d:.6f}",
            }
        )
    return rows, sm_favored


def constant_bitlen_rows() -> list[dict]:
    """Both efficiencies and their difference for constant bit-length matrices.

    The prefix width is derived from the data (bit-length of the common
    bit-length), the fixed-width codec wins for every b below 64, and at
    64 neither codec compresses.
    """
    rows = []
    for b in range(1, 65):
        hist = {b: 1}
        k = bit_length(b)
        rows.append(
            {
                "bitlen": b,
                "eta1": f"{eta1(b):.6f}",
                "eta2": f"{eta2(hist, k):.6f}",
                "D": f"{compare(hist, b, k):.6f}",
            }
        )
    return rows


def write_csv(path, fieldnames, rows, comments=()) -> None:
    """Write rows as CSV, preceded by '#' comment lines recording the run.

    To the file ``path``, rows end in ``\\r\\n`` and comment lines in ``\\n``;
    with no path, to stdout, every line ends in ``\\n``.  Fields are quoted alike."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as f:
        for c in comments:
            f.write(f"# {c}\n")
        writer = csv.DictWriter(f, fieldnames, lineterminator="\r\n" if path else "\n")
        writer.writeheader()
        writer.writerows(rows)
