"""Benchmark of the tcm CLI and library, end to end and layer by layer.

    python3 bench/run.py --workload {bound,scan,audit} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One client runs the workload's op list
as a closed loop, one child process at a time, in rounds until S seconds
have passed, and checks every op's output.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced
rounds and prints the per-layer metrics.  The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from workloads import CheckError, Op

BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 7
# The machine's speed drifts by up to 1.6x over minutes (shared host), far
# more than the bounds.  Each child is therefore timed between two runs of
# a fixed Python loop that walks a 19 MB list with strides, as the degree
# sweep walks its totient table, and its wall time is rescaled to the speed
# at which that loop takes CALIBRATION_REF_S.  Of the loops tried (pure
# arithmetic, tuple allocation and sort, this walk) the walk left the least
# spread between runs on every workload.
CALIBRATION_ENTRIES = 1 << 19
CALIBRATION_STRIDES = (1, 2, 3, 17, 97)
CALIBRATION_REF_S = 0.05

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.serialize_s": "s",
    "cli.stdout_bytes": "B",
    "primes.phi_sieve_s": "s",
    "primes.phi_sieve_n": "count",
    "primes.phi_sieve_bytes_per_entry": "B",
    "primes.cached_primes_s": "s",
    "feasibility.bound_records_s": "s",
    "feasibility.sweep_s": "s",
    "feasibility.n_max": "count",
    "feasibility.feasible_pairs": "count",
    "feasibility.useful_ratio": "ratio",
    "feasibility.refined_table_s": "s",
    "feasibility.refined_rows": "count",
    "feasibility.chain_audit_s": "s",
    "ray_class_bounds.degree_bounds_s": "s",
    "ideal_arith.ideals_up_to_norm_s": "s",
    "ideal_arith.ideals": "count",
    "ideal_arith.brute_force_phi_s": "s",
    "ideal_arith.brute_force_phi_calls": "count",
    "ideal_arith.phi_K_of_N_s": "s",
    "analytics.phi_bound_scan_s": "s",
    "analytics.scan_reduce_s": "s",
    "analytics.landau_s": "s",
    "analytics.mertens_s": "s",
    "analytics.char_euler_product_s": "s",
    "quad_core.class_number_s": "s",
    "quad_core.class_number_calls": "count",
    "quad_core.class_number_dirichlet_s": "s",
    "quad_core.class_number_dirichlet_calls": "count",
    "quad_core.kronecker_calls": "count",
    "galois_image.cn_elements_s": "s",
    "galois_image.group_elements": "count",
    "galois_image.kernel_size_s": "s",
    "galois_image.max_stabilizer_order_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

# derived metrics: an outer span minus the same inner layer called on its own
DERIVED = {
    "feasibility.sweep_s": ("feasibility.bound_records_s", "primes.phi_sieve_s"),
    "analytics.scan_reduce_s": ("analytics.phi_bound_scan_s", "ideal_arith.ideals_up_to_norm_s"),
}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Sample:
    """One execution of an op (and, when traced, of its inner call)."""

    op: Op
    child: Child
    speed: float = 1.0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def ref_s(self) -> float:
        """Wall time rescaled to the reference speed of the calibration loop."""
        return self.child.wall_s * self.speed


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("TCM_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


class Runner:
    """Runs children one at a time in scratch directories and counts failures."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        self.env = child_env(root)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._table = list(range(CALIBRATION_ENTRIES))

    def calibrate(self) -> float:
        """Seconds the calibration walk takes now: the machine's current speed."""
        table, total = self._table, 0
        start = time.perf_counter()
        for stride in CALIBRATION_STRIDES:
            for n in range(0, CALIBRATION_ENTRIES, stride):
                total += table[n]
        return time.perf_counter() - start

    def child(self, argv: list[str]) -> tuple[Child, Path]:
        """Run argv to completion through spawn.py, which times it and takes
        its peak RSS and CPU from os.wait4 on that one child."""
        cwd = Path(tempfile.mkdtemp(dir=self.work))
        with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "spawn.py"), str(CHILD_TIMEOUT_S), *argv],
                cwd=cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                process_group=0,
            )
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S + 30)
            finally:
                if proc.poll() is None:  # interrupted: stop the child and spawn.py
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        try:
            spawn = json.loads((cwd / "spawn.json").read_text())
        except (OSError, ValueError):  # spawn.py itself failed or was killed
            spawn = {"code": proc.returncode or -1, "wall_s": CHILD_TIMEOUT_S, "cpu_s": 0.0, "rss_mb": 0.0}
        result = Child(
            code=spawn["code"],
            wall_s=spawn["wall_s"],
            cpu_s=spawn["cpu_s"],
            rss_mb=spawn["rss_mb"],
            stdout=(cwd / "stdout").read_text(),
            stderr=(cwd / "stderr").read_text(),
        )
        return result, cwd

    def checked(self, name: str, argv: list[str], check) -> tuple[Child, Path]:
        self.attempted += 1
        result, cwd = self.child(argv)
        try:
            if result.code != 0:
                raise CheckError(f"exit code {result.code}: {result.stderr.strip()[-300:]}")
            check(result.stdout)
        except (CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return result, cwd

    def run_op(self, op: Op, traced: bool) -> Sample:
        py = sys.executable
        spans = "spans.json" if traced else "-"
        if op.kind == "cli" and not traced:
            argv = [py, "-m", "tcm", *op.args]
        elif op.kind == "cli":
            argv = [py, str(BENCH / "child.py"), "cli", spans, *op.args]
        else:
            argv = [py, str(BENCH / "child.py"), "op", spans, op.args[0], json.dumps(op.args[1])]
        result, cwd = self.checked(op.name, argv, op.check)
        sample = Sample(op, result)
        if traced:
            self._collect(sample, cwd)
            if op.inner is not None:
                name, params = op.inner
                argv = [py, str(BENCH / "child.py"), "inner", spans, name, json.dumps(params)]
                _, inner_cwd = self.checked(f"{op.name}/{name}", argv, lambda out: None)
                self._collect(sample, inner_cwd, inner=True)
        shutil.rmtree(cwd, ignore_errors=True)
        return sample

    def _collect(self, sample: Sample, cwd: Path, inner: bool = False) -> None:
        path = cwd / "spans.json"
        if path.exists():
            data = json.loads(path.read_text())
            sample.spans += [s + [inner] for s in data["spans"] if s[3] is not None]
            for k, v in data["counts"].items():
                sample.counts[k] = sample.counts.get(k, 0) + v
        if inner:
            shutil.rmtree(cwd, ignore_errors=True)

    def calibrated(self, runs) -> list[Sample]:
        """Run each callable in turn, with a calibration before and after each."""
        samples = []
        before = self.calibrate()
        for run_one in runs:
            sample = run_one()
            after = self.calibrate()
            sample.speed = 2 * CALIBRATION_REF_S / (before + after)
            samples.append(sample)
            before = after
        return samples

    def round(self, ops: list[Op], traced: bool) -> list[Sample]:
        return self.calibrated([lambda op=op: self.run_op(op, traced) for op in ops])

    def setup(self) -> Sample:
        """One child of the import floor: `python -m tcm --version`."""

        def check(out: str) -> None:
            if not out.startswith("tcm, version "):
                raise CheckError(f"unexpected version output {out!r}")

        op = Op("setup", "cli", ["--version"], check)
        result, cwd = self.checked(op.name, [sys.executable, "-m", "tcm", *op.args], check)
        shutil.rmtree(cwd, ignore_errors=True)
        return Sample(op, result)


# --------------------------------------------------------------- metrics


def median_over_rounds(rounds: list[list[Sample]], value) -> list[float]:
    """Per op, the median over rounds of value(sample)."""
    return [statistics.median(value(r[i]) for r in rounds) for i in range(len(rounds[0]))]


def end_to_end(rounds: list[list[Sample]], setup: list[Sample]) -> dict[str, float]:
    return {
        "wall_s": sum(median_over_rounds(rounds, lambda s: s.ref_s)),
        "setup_s": statistics.median(s.ref_s for s in setup),
        "peak_rss_mb": max(median_over_rounds(rounds, lambda s: s.child.rss_mb)),
    }


def layer_totals(samples: list[Sample]) -> dict[str, float]:
    """Span times (name_s, calibrated like wall_s), span counts (name_calls)
    and counts over one traced round."""
    out: dict[str, float] = {}
    covered = wall = ref = 0.0
    for s in samples:
        for name, parent, start, end, inner in s.spans:
            out[name + "_s"] = out.get(name + "_s", 0.0) + (end - start) * s.speed
            out[name + "_calls"] = out.get(name + "_calls", 0) + 1
            if parent is None and not inner:
                covered += end - start
        wall += s.child.wall_s
        ref += s.ref_s
        for k, v in s.counts.items():
            if k == "feasibility.n_max":
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
        for k, v in s.op.counts.items():
            out[k] = out.get(k, 0) + v
        if s.op.kind == "cli":
            out["cli.stdout_bytes"] = out.get("cli.stdout_bytes", 0) + len(s.child.stdout.encode())
    out["trace.coverage"] = covered / wall
    out["op_ref_s"] = ref
    return out


def per_layer(plain: list[list[Sample]], traced: list[list[Sample]]) -> dict[str, float]:
    totals = [layer_totals(r) for r in traced]
    names = set().union(*totals)
    out = {}
    for name in names:
        values = [t.get(name, 0) for t in totals]
        out[name] = statistics.median(values) if name.endswith("_s") or name == "trace.coverage" else values[-1]
    for name, (outer, inner) in DERIVED.items():
        out[name] = out.get(outer, 0.0) - out.get(inner, 0.0)
    n = out.get("primes.phi_sieve_n", 0)
    out["primes.phi_sieve_bytes_per_entry"] = out.get("primes.phi_sieve_peak_bytes", 0) / n if n else 0.0
    region = out.get("feasibility.region_pairs", 0)
    out["feasibility.useful_ratio"] = out.get("feasibility.feasible_pairs", 0) / region if region else 0.0
    untraced = statistics.median(sum(s.ref_s for s in r) for r in plain)
    out["trace.overhead_s"] = out["op_ref_s"] - untraced
    return {name: out.get(name, 0) for name in PER_LAYER}


# --------------------------------------------------------------- context


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for pkg in ("numpy", "click"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["ram_gb"] = round(int(line.split()[1]) / 2**20, 1)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src" / "tcm").glob("*.py"))


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, small: bool = False) -> dict:
    """Run one workload and return the result object plus an info block."""
    ops = workloads.WORKLOADS[workload](random.Random(seed), root, small)
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".bench_work"))
    try:
        runner = Runner(root, work)
        runner.setup()  # warm-up: compiles .pyc files, untimed
        setup = [] if trace else runner.calibrated([runner.setup] * SETUP_SAMPLES)
        plain: list[list[Sample]] = []
        traced: list[list[Sample]] = []
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            plain.append(runner.round(ops, traced=False))
            if trace:
                traced.append(runner.round(ops, traced=True))
            if time.perf_counter() + (time.perf_counter() - start) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    units = PER_LAYER if trace else END_TO_END
    values = per_layer(plain, traced) if trace else end_to_end(plain, setup)
    info = {
        "workload": workload,
        "seed": seed,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "ops": [" ".join(map(str, op.args)) if op.kind == "cli" else op.name for op in ops],
        "op_wall_s": {op.name: [r[i].child.wall_s for r in plain] for i, op in enumerate(ops)},
        "op_speed": {op.name: [r[i].speed for r in plain] for i, op in enumerate(ops)},
        "op_rss_mb": dict(zip((op.name for op in ops), median_over_rounds(plain, lambda s: s.child.rss_mb))),
        "setup_wall_s": [s.child.wall_s for s in setup],
        "setup_speed": [s.speed for s in setup],
        "child_cpu_s": sum(median_over_rounds(plain, lambda s: s.child.cpu_s)),
        "ops_failed_frac": runner.failed / runner.attempted,
        "errors": runner.errors[:10],
        "derived": {k: f"{a} - {b} (inner layer called on its own)" for k, (a, b) in DERIVED.items()} if trace else {},
        "src_lines": src_lines(root),
        "machine": machine(),
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return {"info": info, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tcm" / "cli.py").is_file():
        print(f"error: no tcm sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for the client, its calibration loop and every child it starts
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except workloads.Refused as exc:
        print(f"error: refused by the memory pre-flight: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["info"], indent=1))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
