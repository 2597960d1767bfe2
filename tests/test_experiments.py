"""Grid and experiment runners: thread-count independence, errors, golden CSVs."""

import hashlib
import threading

import pytest

from ccmatrix import experiments
from ccmatrix.cli import main
from ccmatrix.experiments import run_experiment, run_mixture_grid, table_preset


def with_cores(monkeypatch, n, run):
    monkeypatch.setattr(experiments, "_usable_cores", lambda: n)
    return run()


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_mixture_grid([1, 9, 40], w=0.3, sample_size=300, seed=5),
        lambda: run_mixture_grid([1, 5, 17, 33, 60], w=0.0, sample_size=200, seed=8, axes=2),
        lambda: run_experiment(table_preset(4), sizes=(10, 300), replicates=6, seed=11),
        lambda: run_experiment(table_preset(5), sizes=(50,), replicates=3, seed=2, k=None),
    ],
    ids=["mixture-grid", "fig6-grid", "table4", "table5-derived-k"],
)
def test_rows_do_not_depend_on_thread_count(monkeypatch, run):
    assert with_cores(monkeypatch, 1, run) == with_cores(monkeypatch, 4, run)


def test_single_beta_rows_name_two_axes():
    rows, _ = run_mixture_grid([2, 3], w=0.0, sample_size=50, axes=2)
    assert [(r["alpha"], r["beta"]) for r in rows] == [(2, 2), (2, 3), (3, 2), (3, 3)]
    assert list(rows[0]) == list(experiments.SINGLE_BETA_FIELDS)
    with pytest.raises(ValueError, match="axes"):
        run_mixture_grid([2, 3], axes=3)


def test_map_runs_one_thread_per_core_in_index_order(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 4)
    meet = threading.Barrier(4, timeout=30)  # passes only if 4 items run at once

    def square(x):
        if x < 4:
            meet.wait()
        return x * x

    assert experiments._map(square, range(9)) == [x * x for x in range(9)]
    assert experiments._map(square, []) == []


def test_map_reraises_the_first_exception_and_joins_helpers(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 3)
    baseline = threading.active_count()
    started = []

    def fn(x):
        started.append(x)
        if x == 2:
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(ValueError, match="bad item 2"):
        experiments._map(fn, range(10_000))
    assert threading.active_count() == baseline
    assert len(started) < 10_000  # no new item starts after the failure


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_grid_error_is_the_one_a_serial_loop_raises(monkeypatch, cores):
    monkeypatch.setattr(experiments, "_usable_cores", lambda: cores)
    # point 1 is (1, 1, 1, 0); many later points fail too
    with pytest.raises(ValueError, match="^beta2 must be > 0$"):
        run_mixture_grid([1, 0], sample_size=10)


# SHA-256 of CSVs written before grids and cells ran on several threads.
GOLDEN = [
    (["sweep", "--step", "32", "--size", "200", "--seed", "3"],
     "708bf400b697bff8d9e707f044836c2d5fccc8a6a6c4f32a151daebd6c377069"),
    (["sweep", "--fig", "6", "--step", "16", "--size", "100"],
     "0cbc2cf8d45d29c78d88590065e4321da10fbf48dfc37a0e2b2dd5866b535741"),
    (["experiment", "--table", "5", "--size", "100", "1000", "--replicates", "20", "--seed", "1"],
     "826cc3c116434983a7460776b8a907e53465bb263dba6505fde56de329fe53fa"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=["sweep", "fig6", "table5"])
def test_golden_csv_bytes(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert main(argv + ["--csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
