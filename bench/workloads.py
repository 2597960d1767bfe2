"""The benchmark's workloads: ``store``, ``compute`` and ``sweep``.

Each workload is a closed loop with one client in one process: the next
call into ccmatrix starts only after the previous one returned. A
workload has four steps:

* ``setup(seed, workdir)`` makes the inputs from the seed and packs any
  operands, through ccmatrix calls alone. It is timed (``setup_s``) and
  repeated.
* ``expect(state)`` writes any input files and runs the oracle on the
  inputs. It is not timed.
* ``run_pass(state, tally, meter)`` issues one pass of calls. Only the
  calls themselves are timed, by ``meter``; each result is checked right
  after its call, inside ``meter.quiet()``, which pauses the span
  recorder in a traced run so the oracle's own calls are not counted.
* ``summarize(passes)`` turns per-pass figures into the stage metrics.

Every time a workload reports is scaled to the reference speed of the
box by :class:`Meter`.

ccmatrix is reached only through its public modules (``cli.main``,
``CompressedMatrix``, ``genmat``, ``experiments``), and always through
the module attribute, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import statistics
import time
from itertools import product
from pathlib import Path

import numpy as np

import oracle
from ccmatrix import ArithmeticOverflow, BetaMixture, CompressedMatrix, Constant, Uniform
from ccmatrix import cli, container, experiments, genmat

U64_MAX = (1 << 64) - 1


class Tally:
    """Operations attempted and failed; a failure is any oracle mismatch or
    unexpected exception. ``notes`` holds facts for the run report."""

    MAX_DETAILS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.details: list[str] = []
        self.notes: dict = {}

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.details) < self.MAX_DETAILS:
                self.details.append(f"{what}: {'; '.join(problems)[:300]}")


def python_probe() -> int:
    """A fixed pure-Python task shaped like the seed's per-element loops:
    big-int multiply, shift and mask, and a list update per step."""
    words = [0] * 256
    acc = 0x9E3779B97F4A7C15
    for i in range(30000):
        acc = (acc * 6364136223846793005 + 1442695040888963407) & U64_MAX
        words[i & 255] ^= acc >> (i & 31)
    return words[0]


def numpy_probe() -> int:
    """A fixed numpy task shaped like the sampler: Beta draws mapped to bit-lengths."""
    rng = np.random.default_rng(12345)
    total = 0
    for a, b in ((2, 5), (9, 3), (1, 17), (33, 9)):
        x = rng.beta(a, b, size=25000)
        total += int(np.minimum(np.floor(64 * x).astype(np.int64) + 1, 64).sum())
    return total


class Meter:
    """Times calls into ccmatrix and scales each time to the reference speed.

    On a shared 2-core box the speed of the same code drifts by 15-25% over
    tens of seconds as other tenants load the machine, so raw wall times of
    whole runs spread too widely to compare commits. Around every timed
    call the meter times a fixed probe task shaped like the workload's own
    inner loop (the fastest of three runs), and multiplies the call's wall
    time by ``nominal_s`` over the mean of the probe times before and
    after it. A figure is then the time the call would take on the box
    while the probe runs in ``nominal_s``. Raw wall time is summed in
    ``wall_s`` for the report.
    """

    def __init__(self, probe, nominal_s: float, quiet=contextlib.nullcontext):
        self.probe_task = probe
        self.nominal_s = nominal_s
        self.quiet = quiet
        self.wall_s = 0.0

    def probe(self) -> float:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            self.probe_task()
            runs.append(time.perf_counter() - t0)
        return min(runs)

    def scale(self, before: float, after: float) -> float:
        return 2 * self.nominal_s / (before + after)

    def call(self, fn, *args):
        """Run one call; returns (result, exception or None, scaled seconds)."""
        before = self.probe()
        t0 = time.perf_counter()
        try:
            result, exc = fn(*args), None
        except Exception as e:  # recorded by the caller as a failed operation
            result, exc = None, e
        took = time.perf_counter() - t0
        self.wall_s += took
        return result, exc, took * self.scale(before, self.probe())


def cli_call(argv: list[str]) -> tuple[int | None, str, str]:
    """Call ``cli.main`` in-process with output captured; returns
    (exit code or None on an exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


def exit_problems(code: int | None, err: str) -> list[str]:
    return [] if code == 0 else [f"exit {code}: {err.strip()[:200]}"]


def median(values) -> float:
    return float(statistics.median(values))


# (probe task, its typical time on the reference box)
PYTHON_PROBE = (python_probe, 0.010)
NUMPY_PROBE = (numpy_probe, 0.007)


class Workload:
    """What the three workloads share: how they are timed and how a pass sums up."""

    PROBE = PYTHON_PROBE  # scales the calls of a pass
    SETUP_PROBE = PYTHON_PROBE  # scales set-up

    def meter(self, quiet=contextlib.nullcontext) -> Meter:
        return Meter(*self.PROBE, quiet)

    def setup_meter(self) -> Meter:
        return Meter(*self.SETUP_PROBE)

    def pass_seconds(self, p: dict) -> float:
        return sum(p.values())


class Store(Workload):
    """CLI round trip of a file user: compress, info, decompress per codec."""

    name = "store"
    SETUP_PROBE = NUMPY_PROBE  # set-up is the numpy sampler alone
    SHAPE = (250, 250)
    DIST = Uniform(1, 40)  # SM width 40, VLB k = 6
    METHODS = ("sm", "vlb")

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"dense": genmat.sample_matrix(self.DIST, *self.SHAPE, seed), "dir": workdir}

    def expect(self, st: dict) -> None:
        dense = st["dense"]
        st["text"] = oracle.text_matrix(dense)
        st["input"] = st["dir"] / "input.txt"
        st["input"].write_text(st["text"])
        st["container"] = {"sm": oracle.sm_container(dense), "vlb": oracle.vlb_container(dense)}
        st["report"] = {m: oracle.report_fields(dense, m) for m in self.METHODS}
        st["histogram"] = oracle.histogram(dense)

    def run_pass(self, st: dict, tally: Tally, meter: Meter) -> dict:
        times = {}
        for method in self.METHODS:
            blob = st["dir"] / f"{method}.ccm"
            text_out = st["dir"] / f"{method}.txt"
            blob.unlink(missing_ok=True)
            text_out.unlink(missing_ok=True)
            steps = (
                ("compress", ["compress", str(st["input"]), str(blob), "--method", method]),
                ("info", ["info", str(blob)]),
                ("decompress", ["decompress", str(blob), str(text_out)]),
            )
            for step, argv in steps:
                (code, out, err), _, took = meter.call(cli_call, argv)
                times[f"{step}_{method}"] = took
                with meter.quiet():
                    problems = exit_problems(code, err) or self._check(st, step, method, out, blob, text_out)
                tally.record(f"{step} --method {method}", problems)
        return times

    def _check(self, st, step, method, out, blob, text_out) -> list[str]:
        if step == "compress":
            problems = oracle.report_mismatches(out, st["report"][method], None)
            if blob.read_bytes() != st["container"][method]:
                problems.append("container bytes differ from the reference encoding")
            return problems
        if step == "info":
            return oracle.report_mismatches(out, st["report"][method], st["histogram"])
        if text_out.read_text() != st["text"]:
            return ["decompressed text differs from the input"]
        return []

    def summarize(self, passes: list[dict]) -> dict[str, tuple[float, str]]:
        n = self.SHAPE[0] * self.SHAPE[1]
        out = {}
        for step in ("compress", "decompress"):
            for method in self.METHODS:
                rate = median(n / p[f"{step}_{method}"] for p in passes)
                out[f"{step}_{method}_elems_per_s"] = (rate, "elem/s")
        out["info_elems_per_s"] = (median(2 * n / (p["info_sm"] + p["info_vlb"]) for p in passes), "elem/s")
        return out

    def invariants(self, st: dict) -> dict[str, float]:
        n = st["dense"].size
        header = oracle.HEADER.size
        sm_blob = (st["dir"] / "sm.ccm").read_bytes()
        vlb_bits = int(st["report"]["vlb"]["bits_used"])  # checked equal to the printed figure
        return {
            "sm.bits_per_elem": oracle.HEADER.unpack_from(sm_blob)[6],
            "vlb.bits_per_elem": vlb_bits / n,
            "container.payload_bytes": sum(
                (st["dir"] / f"{m}.ccm").stat().st_size - header for m in self.METHODS
            ),
        }


class Compute(Workload):
    """Library use on packed operands: point reads and writes, then bulk ops."""

    name = "compute"
    SIDE = 100
    TILE = 20
    DIST = Uniform(1, 24)
    POINT_OPS = 6000
    SET_SHARE = 0.2
    OPERANDS = ("sm", "vlb_row", "vlb_col")

    def setup(self, seed: int, workdir: Path) -> dict:
        s1, s2, s3 = (int(s) for s in np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64))
        m1 = genmat.sample_matrix(self.DIST, self.SIDE, self.SIDE, s1)
        m2 = genmat.sample_matrix(self.DIST, self.SIDE, self.SIDE, s2)
        # Bit-length 64 puts every element at or above 2**63, so any sum overflows.
        big = genmat.sample_matrix(Constant(64), 2, 2, s3)
        t = self.TILE
        ops = {
            "sm": CompressedMatrix.compress(m1, "sm"),
            "vlb_row": CompressedMatrix.compress(m2, "vlb"),
            # Same values as the SM operand, so equals() scans every element.
            "vlb_col": CompressedMatrix.compress(m1, "vlb", order="col"),
        }
        return {
            "m1": m1,
            "m2": m2,
            "ops": ops,
            "tile_sm": CompressedMatrix.compress(m1[:t, :t], "sm"),
            "tile_vlb": CompressedMatrix.compress(m2[:t, :t], "vlb"),
            "big": CompressedMatrix.compress(big, "sm"),
            "rng": np.random.default_rng(seed),
        }

    def expect(self, st: dict) -> None:
        m1, m2, t = st["m1"], st["m2"], self.TILE
        st["shadow"] = {"sm": m1.copy(), "vlb_row": m2, "vlb_col": m1}
        st["set_bound"] = 1 << int(oracle.bitlens(m1).max())
        exact = m1[:t, :t].astype(object) @ m2[:t, :t].astype(object)
        st["expected"] = {
            "scalar_mul": oracle.sm_container(m2 * np.uint64(3)),
            "transpose": oracle.sm_container(m1.T),
            "matmul": oracle.sm_container(exact.astype(np.uint64)),
        }

    def run_pass(self, st: dict, tally: Tally, meter: Meter) -> dict:
        p = self._point_ops(st, tally, meter)
        ops, shadow, expected = st["ops"], st["shadow"], st["expected"]
        sm_op, vlb_col = ops["sm"], ops["vlb_col"]

        def check(what, result, exc, want_bytes):
            if exc is not None:
                return tally.record(what, [f"{type(exc).__name__}: {exc}"])
            with meter.quiet():
                same = container.dump_bytes(result) == want_bytes
            tally.record(what, [] if same else ["result differs from the reference encoding"])

        result, exc, p["add"] = meter.call(sm_op.add, vlb_col)
        check("add(sm, vlb_col)", result, exc, oracle.sm_container(shadow["sm"] + st["m1"]))
        result, exc, p["scalar_mul"] = meter.call(ops["vlb_row"].scalar_mul, 3)
        check("scalar_mul(vlb_row, 3)", result, exc, expected["scalar_mul"])
        result, exc, p["transpose"] = meter.call(vlb_col.transpose)
        check("transpose(vlb_col)", result, exc, expected["transpose"])

        with meter.quiet():
            self._restore(st, tally)
        result, exc, p["equals"] = meter.call(sm_op.equals, vlb_col)
        tally.record("equals(sm, vlb_col)", [] if exc is None and result is True else [f"got {result!r} {exc!r}"])

        result, exc, p["matmul"] = meter.call(st["tile_sm"].matmul, st["tile_vlb"])
        check("matmul(sm tile, vlb tile)", result, exc, expected["matmul"])

        try:
            st["big"].add(st["big"])
            exc = None
        except Exception as e:  # anything but ArithmeticOverflow is a failure
            exc = e
        ok = isinstance(exc, ArithmeticOverflow)
        tally.record("add near 2**64", [] if ok else [f"expected ArithmeticOverflow, got {exc!r}"])
        return p

    def _point_ops(self, st: dict, tally: Tally, meter: Meter) -> dict:
        """Random-position reads over all three operands, with in-place SM writes."""
        rng, n, side = st["rng"], self.POINT_OPS, self.SIDE
        is_set = rng.random(n) < self.SET_SHARE
        which = rng.integers(0, len(self.OPERANDS), n)
        ii = rng.integers(0, side, n).tolist()
        jj = rng.integers(0, side, n).tolist()
        values = rng.integers(0, st["set_bound"], n).tolist()
        ops = [st["ops"][name] for name in self.OPERANDS]
        shadows = [st["shadow"][name] for name in self.OPERANDS]
        sm_inner = st["ops"]["sm"].inner
        lat = {name: [] for name in self.OPERANDS}
        lat["set"] = []
        written = []
        clock = time.perf_counter_ns
        before = meter.probe()
        for t in range(n):
            i, j = ii[t], jj[t]
            if is_set[t]:
                v = values[t]
                t0 = clock()
                try:
                    sm_inner.set(i, j, v)
                    problems = []
                except Exception as exc:  # recorded as a failed operation
                    problems = [f"{type(exc).__name__}: {exc}"]
                lat["set"].append(clock() - t0)
                shadows[0][i, j] = v
                written.append((i, j))
                tally.record("set", problems)
                continue
            w = which[t]
            t0 = clock()
            try:
                got = ops[w].get(i, j)
            except Exception as exc:  # recorded as a failed operation
                got = exc
            lat[self.OPERANDS[w]].append(clock() - t0)
            want = int(shadows[w][i, j])
            tally.record(f"get {self.OPERANDS[w]}", [] if got == want else [f"({i}, {j}) got {got!r}, want {want}"])
        factor = meter.scale(before, meter.probe())
        st["written"] = written
        raw_s = sum(sum(v) for v in lat.values()) / 1e9
        meter.wall_s += raw_s
        return {"lat": {k: np.array(v) * factor for k, v in lat.items()}, "points_s": raw_s * factor}

    def _restore(self, st: dict, tally: Tally) -> None:
        """Write the pass's changed SM elements back, so SM equals VLB-col again."""
        sm_inner, m1 = st["ops"]["sm"].inner, st["m1"]
        for i, j in dict.fromkeys(st.pop("written")):
            try:
                sm_inner.set(i, j, int(m1[i, j]))
                problems = []
            except Exception as exc:  # recorded as a failed operation
                problems = [f"{type(exc).__name__}: {exc}"]
            tally.record("set (restore)", problems)
        st["shadow"]["sm"][...] = m1

    ELEMENTWISE = ("add", "scalar_mul", "equals", "transpose")

    def summarize(self, passes: list[dict]) -> dict[str, tuple[float, str]]:
        lat = {k: np.concatenate([p["lat"][k] for p in passes]) for k in passes[0]["lat"]}
        reads = np.concatenate([lat[k] for k in self.OPERANDS])
        out = {
            "get_sm_p50_ns": (float(np.median(lat["sm"])), "ns"),
            "get_vlb_p50_ns": (float(np.median(np.concatenate([lat["vlb_row"], lat["vlb_col"]]))), "ns"),
            "get_p99_ns": (float(np.percentile(reads, 99)), "ns"),
            "set_p50_ns": (float(np.median(lat["set"])), "ns"),
            "elementwise_ms": (median(1e3 * sum(p[k] for k in self.ELEMENTWISE) for p in passes), "ms"),
            "matmul_ms": (median(1e3 * p["matmul"] for p in passes), "ms"),
        }
        # The ROADMAP's pathological cases, kept apart for later before/after tables.
        for k in self.ELEMENTWISE:
            out[f"{k}_ms"] = (median(1e3 * p[k] for p in passes), "ms")
        return out

    def pass_seconds(self, p: dict) -> float:
        return p["points_s"] + sum(p[k] for k in self.ELEMENTWISE) + p["matmul"]

    def invariants(self, st: dict) -> dict[str, float]:
        n = self.SIDE * self.SIDE
        return {
            "sm.bits_per_elem": st["ops"]["sm"].bits_used / n,
            "vlb.bits_per_elem": st["ops"]["vlb_row"].bits_used / n,
            "container.payload_bytes": 0,
        }


class Sweep(Workload):
    """The researcher's CSV commands: a mixture-grid sweep and three tables."""

    name = "sweep"
    PROBE = SETUP_PROBE = NUMPY_PROBE
    STEP = 12  # 6 values per axis, 6**4 = 1296 grid points
    WARMUP_STEP = 32  # 2 values per axis, 16 points
    SAMPLE = 10_000
    TABLES = (3, 4, 5)
    SIZES = (100, 10_000)
    REPLICATES = 50
    K = 7  # the CLI's default fixed-7 prefix policy
    CHECK_POINTS = 16

    def setup(self, seed: int, workdir: Path) -> dict:
        # A small sweep pays the first-call costs (argument parser, CSV
        # writer, generator start-up) before anything is timed.
        warm = workdir / "warmup.csv"
        code, _, err = cli_call(self._sweep_argv(self.WARMUP_STEP, seed, warm))
        return {"seed": seed, "dir": workdir, "warmup": (warm, code, err), "sha256": {}}

    def expect(self, st: dict) -> None:
        st["check_rng"] = np.random.default_rng(st["seed"])
        warm, code, err = st.pop("warmup")
        st["warmup_problems"] = exit_problems(code, err) or self._check_grid(st, warm, self.WARMUP_STEP, None)

    def _sweep_argv(self, step: int, seed: int, path: Path) -> list[str]:
        return ["sweep", "--step", str(step), "--size", str(self.SAMPLE), "--seed", str(seed), "--csv", str(path)]

    def run_pass(self, st: dict, tally: Tally, meter: Meter) -> dict:
        if "warmup_problems" in st:
            tally.record("sweep warm-up", st.pop("warmup_problems"))
        seed, times = st["seed"], {}
        jobs = [("sweep", self._sweep_argv(self.STEP, seed, st["dir"] / "sweep.csv"))]
        for table in self.TABLES:
            path = st["dir"] / f"table{table}.csv"
            argv = ["experiment", "--table", str(table), "--size", *map(str, self.SIZES),
                    "--replicates", str(self.REPLICATES), "--seed", str(seed), "--csv", str(path)]
            jobs.append((f"table{table}", argv))
        for job, argv in jobs:
            path = Path(argv[-1])
            path.unlink(missing_ok=True)
            (code, _, err), _, times[job] = meter.call(cli_call, argv)
            with meter.quiet():
                problems = exit_problems(code, err) or self._check_csv(st, tally, job, path)
            tally.record(job, problems)
        return times

    def _check_csv(self, st: dict, tally: Tally, job: str, path: Path) -> list[str]:
        """The first output of each job is checked in full; a later pass must
        write the same bytes, since its inputs are the same."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if job in st["sha256"]:
            return [] if st["sha256"][job] == digest else ["CSV differs from the first pass"]
        st["sha256"][job] = digest
        tally.notes.setdefault("csv_sha256", {})[job] = digest
        if job == "sweep":
            return self._check_grid(st, path, self.STEP, self.CHECK_POINTS)
        return self._check_table(st, path, int(job.removeprefix("table")))

    @staticmethod
    def _rows(path: Path) -> list[dict]:
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        return list(csv.DictReader(lines))

    def _check_grid(self, st: dict, path: Path, step: int, sample: int | None) -> list[str]:
        """Grid order must be complete; sampled points are recomputed exactly.

        Grid point ``idx`` draws from seed ``seed XOR (idx << 16)``, as
        the experiments module documents.
        """
        rows = self._rows(path)
        points = list(product(range(1, 64, step), repeat=4))
        got = [tuple(int(r[c]) for c in ("alpha1", "beta1", "alpha2", "beta2")) for r in rows]
        if got != points:
            return [f"grid has {len(got)} points in another order, want {len(points)}"]
        picks = range(len(points)) if sample is None else st["check_rng"].choice(len(points), sample, replace=False)
        problems = []
        for idx in picks:
            point_seed = (st["seed"] ^ (int(idx) << 16)) & U64_MAX
            bl = genmat.sample_bitlens(BetaMixture(*points[idx], 0.5), self.SAMPLE, point_seed)
            problems += [f"point {idx}: {m}" for m in oracle.grid_row_mismatches(rows[idx], bl, self.K)]
        return problems

    def _check_table(self, st: dict, path: Path, table: int) -> list[str]:
        """Every row's labels and cell seed, and one sampled row's statistics.

        Cell ``c`` uses seed ``seed XOR (c << 32)`` and replicate ``r`` of
        it ``cell_seed XOR r``, as the experiments and genmat modules document.
        """
        rows = self._rows(path)
        cells = [(label, param, dist, size) for label, param, dist in experiments.table_preset(table)
                 for size in self.SIZES]
        if len(rows) != len(cells):
            return [f"{len(rows)} rows, want {len(cells)}"]
        problems = []
        for c, (row, (label, param, _, size)) in enumerate(zip(rows, cells)):
            want = {"distribution": label, "param": str(param), "size": str(size),
                    "replicates": str(self.REPLICATES), "seed": str((st["seed"] ^ (c << 32)) & U64_MAX)}
            problems += [f"row {c} {k}={row[k]!r}, want {v!r}" for k, v in want.items() if row[k] != v]
        c = int(st["check_rng"].integers(len(cells)))
        _, _, dist, size = cells[c]
        cell_seed = int(rows[c]["seed"])
        samples = (genmat.sample_bitlens(dist, size, cell_seed ^ r) for r in range(self.REPLICATES))
        problems += [f"row {c}: {m}" for m in oracle.experiment_row_mismatches(rows[c], samples, self.K)]
        return problems

    def summarize(self, passes: list[dict]) -> dict[str, tuple[float, str]]:
        points = len(range(1, 64, self.STEP)) ** 4
        cells = sum(len(experiments.table_preset(t)) for t in self.TABLES) * len(self.SIZES)
        reps = cells * self.REPLICATES
        tables = [f"table{t}" for t in self.TABLES]
        return {
            "sweep_points_per_s": (median(points / p["sweep"] for p in passes), "points/s"),
            "replicates_per_s": (median(reps / sum(p[t] for t in tables) for p in passes), "replicates/s"),
        }

    def invariants(self, st: dict) -> dict[str, float]:
        return {"sm.bits_per_elem": 0, "vlb.bits_per_elem": 0, "container.payload_bytes": 0}


WORKLOADS = {w.name: w for w in (Store, Compute, Sweep)}
