"""hdfactor benchmark: Monte Carlo throughput, CLI fit latency, layer trace.

Run from the root of a checkout (hdfactor is imported from ``src/``)::

    python3 bench/run.py --workload mc-table1 --seed 1 --seconds 30 --trace 0

Workloads (bench/README.md says why each was chosen):

* ``mc-two-step``: ``two_step_study`` on the criterion-7 design, n=1600, p=800.
  Its op times swing with thread oversubscription, so BENCHMARK.json does
  not list it; run it by hand.
* ``mc-table1``: ``run_table1`` on the criterion-1 grid.
* ``cli-wide``: fresh-process ``hdfactor --version``, ``estimate`` and
  ``two-step`` on a panel with p >= 2n.

Ops run closed loop, one at a time, until their summed wall time reaches
``--seconds``.  Output checks run after the timed region.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` half
of the time runs untraced (CPU counters) and half traced (layer spans), and
the per-layer metrics are reported.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a report holding the environment and
every metric the benchmark defines, by name and unit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

import numpy as np

from spans import Tracer, instrument, self_times, spans_from_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_OPS = 4             # per timed run; a CLI round takes ~13 s on 2 CPUs
MIN_TRACED_OPS = 2      # per half of a traced run, to stay well inside 180 s
SUBPROCESS_TIMEOUT_S = 60
EIGENVALUE_RTOL = 1e-9
RECONSTRUCTION_RTOL = 1e-9

# The criterion-7 mixed-strength design: two strong factors, one weak.
MIXED_DESIGN = dict(r=3, deltas=(0.0, 0.0, 0.5), ar_coeffs=(0.6, -0.5, 0.3), k0=1)


@dataclass
class Sample:
    """One timed op: a study call, or one round of CLI commands."""

    index: int
    seconds: float
    units: int                  # replications, or CLI commands
    attempted: int
    failed: int = 0
    hits: int = 0               # fits whose count equals the true r
    fits: int = 0
    parts: dict = field(default_factory=dict)
    result: object = None


WARM_UP = -1  # op index of the untimed warm-up op


def op_seed(seed: int, index: int) -> int:
    """Base seed of op ``index``: distinct per op, fixed by the workload seed."""
    return int(np.random.SeedSequence([seed, index - WARM_UP]).generate_state(1)[0] >> 1)


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def fresh_import_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hdfactor.cli"], env=child_env(),
                   check=True, timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - start


# ---------------------------------------------------------------- output checks

def _matrix(block: dict) -> np.ndarray:
    return np.asarray(block["data"], dtype=float).reshape(block["rows"], block["cols"])


def check_model(doc: dict, ref, centered: np.ndarray) -> list:
    """Problems found in a CLI ``model.json`` against an in-process fit.

    Integer fields must match exactly and eigenvalues within 1e-9 of the
    largest; the written loadings and factors must reconstruct the centred
    panel, with residuals matching the written residual summary.  Files
    need not be byte-identical.
    """
    problems = []
    expected = {"r_hat": ref.r_hat, "k0": ref.k0, "R": ref.ratio_span, "method": ref.method}
    if ref.method == "two-step":
        expected.update(r1_hat=ref.r1_hat, r2_hat=ref.r2_hat)
    for key, value in expected.items():
        if doc.get(key) != value:
            problems.append(f"{key}={doc.get(key)!r}, expected {value!r}")
    scale = float(np.max(np.abs(ref.eigenvalues)))
    spectra = [("eigenvalues", ref.eigenvalues)]
    if ref.method == "two-step":
        spectra.append(("eigenvalues_step2", ref.eigenvalues_step2))
    for key, values in spectra:
        got = np.asarray(doc.get(key, []), dtype=float)
        if got.shape != values.shape:
            problems.append(f"{key} has {got.size} entries, expected {values.size}")
        elif np.max(np.abs(got - values)) > EIGENVALUE_RTOL * scale:
            problems.append(f"{key} differ by {np.max(np.abs(got - values)):.3g} (scale {scale:.3g})")
    loadings, factors = _matrix(doc["loadings"]), _matrix(doc["factors"])
    p, n = centered.shape
    if loadings.shape != (p, ref.r_hat) or factors.shape != (ref.r_hat, n):
        problems.append(f"loadings {loadings.shape} / factors {factors.shape} do not fit r_hat={ref.r_hat}")
        return problems
    tol = RECONSTRUCTION_RTOL * float(np.max(np.abs(centered)))
    if np.max(np.abs(factors - loadings.T @ centered)) > tol * max(1.0, np.sqrt(p)):
        problems.append("factors are not the projection of the centred panel on the loadings")
    residuals = centered - loadings @ factors
    summary = doc.get("residual_summary", {})
    for key, value in (("rms", np.sqrt((residuals**2).mean())), ("max_abs", np.abs(residuals).max())):
        if summary.get(key) is None or abs(summary[key] - value) > tol:
            problems.append(f"residual {key} {summary.get(key)!r}, reconstruction gives {value!r}")
    return problems


def check_study(result, reference) -> list:
    """Problems when a study result differs from its workers=1 recomputation."""
    if result == reference:
        return []
    return [f"result with default workers differs from workers=1: {result!r} != {reference!r}"]


# ---------------------------------------------------------------- workloads

class Workload:
    """Inputs, one timed op, and the checks on its outputs."""

    name = ""
    runs_children = False       # the work happens in child processes

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def build_inputs(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int) -> Sample:
        raise NotImplementedError

    def check_op(self, sample: Sample) -> None:
        """Check one op's outputs right after it ran, outside its timing."""

    def check_all(self, samples: list) -> None:
        """Check outputs once the timed loop has ended."""


class McWorkload(Workload):
    """Closed loop of study calls through the public simulation API."""

    def build_inputs(self) -> None:
        """A study's inputs are its parameters; it draws its panels when called."""

    def warm_up(self) -> None:
        self.call(WARM_UP)

    def run_op(self, index: int) -> Sample:
        start = time.perf_counter()
        try:
            result = self.call(index)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Sample(index, time.perf_counter() - start, 0, 1, failed=1)
        seconds = time.perf_counter() - start
        hits, fits = self.hits(result)
        return Sample(index, seconds, fits, 1, hits=hits, fits=fits, result=result)

    def check_all(self, samples: list) -> None:
        """Recompute the first and last ops with one worker; results must match."""
        done = [s for s in samples if not s.failed]
        for sample in {id(s): s for s in done[:1] + done[-1:]}.values():
            try:
                problems = check_study(sample.result, self.call(sample.index, workers=1))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                problems = ["workers=1 recomputation raised"]
            if problems:
                print(f"{self.name} op {sample.index}: " + "; ".join(problems), file=sys.stderr)
                sample.failed = 1


class McTwoStep(McWorkload):
    name = "mc-two-step"

    def __init__(self, seed, smoke, work):
        super().__init__(seed, work)
        # Two replications per call: one per pool worker on a 2-CPU machine,
        # so every call runs workers and BLAS threads side by side.
        self.n, self.p, self.reps = (60, 30, 2) if smoke else (1600, 800, 2)

    def scenario(self, index: int):
        from hdfactor import Scenario

        return Scenario(n=self.n, p=self.p, seed=op_seed(self.seed, index), **MIXED_DESIGN)

    def call(self, index: int, workers: Optional[int] = None):
        from hdfactor import simulation

        return simulation.two_step_study(self.scenario(index), self.reps, workers=workers)

    @staticmethod
    def hits(result) -> tuple:
        return round(result.freq_two * result.reps), result.reps


class McTable1(McWorkload):
    name = "mc-table1"

    def __init__(self, seed, smoke, work):
        super().__init__(seed, work)
        self.n_grid = (20, 40) if smoke else (100, 200, 400)
        self.p_rules = (0.2, 0.5)
        self.reps = 3 if smoke else 50

    def call(self, index: int, workers: Optional[int] = None):
        from hdfactor import simulation

        return simulation.run_table1([0.0], self.n_grid, self.p_rules, self.reps,
                                     op_seed(self.seed, index), workers=workers)

    @staticmethod
    def hits(cells) -> tuple:
        hits = sum(round(res.freq_correct * res.reps) for *_, res in cells)
        return hits, sum(res.reps for *_, res in cells)


class CliWide(Workload):
    """Fresh-process CLI rounds: ``--version``, ``estimate``, ``two-step``."""

    name = "cli-wide"
    runs_children = True
    COMMANDS = ("version", "estimate", "two-step")

    def __init__(self, seed, smoke, work):
        super().__init__(seed, work)
        self.n, self.p = (30, 80) if smoke else (200, 2000)
        self.csv = work / "panel.csv"
        self.spans: Optional[list] = None   # set to collect the children's spans
        self._reference = {}

    def build_inputs(self) -> None:
        from hdfactor import Scenario, generate, save_csv

        self.panel, _ = generate(Scenario(n=self.n, p=self.p, seed=self.seed, **MIXED_DESIGN))
        save_csv(self.panel, self.csv)

    def warm_up(self) -> None:
        self._command(["--version"], None)

    def _command(self, args: list, spans_path: Optional[Path]) -> int:
        if spans_path is None:
            argv = [sys.executable, "-m", "hdfactor", *args]
        else:
            argv = [sys.executable, str(BENCH / "cli_entry.py"), str(spans_path), *args]
        try:
            proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
        except (subprocess.TimeoutExpired, OSError):
            traceback.print_exc(file=sys.stderr)
            return -1
        if proc.returncode != 0:
            print(f"hdfactor {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}",
                  file=sys.stderr)
        return proc.returncode

    def run_op(self, index: int) -> Sample:
        parts, exits = {}, {}
        for k, command in enumerate(self.COMMANDS):
            out = self.work / f"op{index}-{command}"
            args = ["--version"] if command == "version" else [command, str(self.csv), "--out", str(out)]
            spans_path = None if self.spans is None else self.work / f"spans-{index}-{k}.json"
            start = time.perf_counter()
            exits[command] = self._command(args, spans_path)
            parts[command] = time.perf_counter() - start
            if spans_path is not None and exits[command] == 0:
                rows = json.loads(spans_path.read_text())
                for row in rows:
                    row["op"] = index * len(self.COMMANDS) + k
                self.spans.extend(spans_from_json(rows))
                spans_path.unlink()
        return Sample(index, sum(parts.values()), len(self.COMMANDS), len(self.COMMANDS),
                      failed=sum(code != 0 for code in exits.values()), parts=parts, result=exits)

    def reference(self, command: str):
        if command not in self._reference:
            from hdfactor import estimate, two_step_estimate

            fit = estimate if command == "estimate" else two_step_estimate
            self._reference[command] = fit(self.panel)
        return self._reference[command]

    def check_op(self, sample: Sample) -> None:
        """Compare this round's model.json files with in-process fits."""
        centered = self.panel.values - self.panel.values.mean(axis=1, keepdims=True)
        for command in self.COMMANDS[1:]:
            out = self.work / f"op{sample.index}-{command}"
            if sample.result[command] == 0:  # a non-zero exit is already counted
                try:
                    doc = json.loads((out / "model.json").read_text())
                    problems = check_model(doc, self.reference(command), centered)
                except (OSError, ValueError, KeyError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                if problems:
                    print(f"cli-wide op {sample.index} {command}: " + "; ".join(problems),
                          file=sys.stderr)
                    sample.failed += 1
                else:
                    sample.hits += doc["r_hat"] == MIXED_DESIGN["r"]
                    sample.fits += 1
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (McTwoStep, McTable1, CliWide)}


# ---------------------------------------------------------------- measurement

def measure(workload, seconds: float, first_index: int, min_ops: int,
            tracer: Optional[Tracer] = None) -> list:
    """Run ops closed loop until their summed wall time reaches ``seconds``.

    At least ``min_ops`` ops run, so that one slow op cannot set the median.
    """
    samples, busy = [], 0.0
    while len(samples) < min_ops or busy < seconds:
        if tracer is not None:
            tracer.op = first_index + len(samples)
        sample = workload.run_op(first_index + len(samples))
        busy += sample.seconds
        workload.check_op(sample)
        samples.append(sample)
    return samples


def cpu_counters(children: bool) -> tuple:
    times = os.times()
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    usage = resource.getrusage(who)
    cpu = (times.children_user + times.children_system) if children else (times.user + times.system)
    return cpu, usage.ru_nivcsw, usage.ru_maxrss / 1024.0


def openblas_threads() -> Optional[int]:
    """Thread count of numpy's bundled OpenBLAS, read without changing it."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*"))
    for path in libs:
        func = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if func is not None:
            func.restype, func.argtypes = ctypes.c_int, []
            return int(func())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    from importlib.metadata import version

    from hdfactor.simulation import worker_count

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "worker_count": worker_count(),
        "openblas_threads": openblas_threads(),
        "HDFACTOR_THREADS": os.environ.get("HDFACTOR_THREADS"),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
    }


def p50(values: list) -> float:
    return float(median(values)) if values else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def spec_metrics(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec[kind]}


def end_to_end(workload, samples: list, setup_s: float, rss_mb: float) -> tuple:
    """Gated metrics, and the report's longer list named after each use case."""
    ok = [s for s in samples if not s.failed]
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    fits = sum(s.fits for s in samples)
    gated = spec_metrics("end_to_end", {
        "setup_s": setup_s,
        "op_s_p50": p50([s.seconds for s in ok]),
        "peak_rss_mb": rss_mb,
    })
    report = dict(gated)
    report["failed_ratio"] = metric(failed / attempted, "1")
    report["r_hat_hit_ratio"] = metric(sum(s.hits for s in samples) / fits if fits else 0.0, "1")
    if workload.runs_children:
        for command, key in zip(CliWide.COMMANDS, ("cli_start_s_p50", "cli_estimate_s_p50",
                                                    "cli_two_step_s_p50")):
            report[key] = metric(p50([s.parts[command] for s in ok]), "s")
    else:
        reps = sum(s.units for s in samples)
        report["mc_reps_per_s"] = metric(reps / sum(s.seconds for s in samples), "rep/s")
    report["samples"] = metric(len(samples), "count")
    report["op_seconds"] = [round(s.seconds, 6) for s in samples]
    return gated, report


def per_layer(spans: list, counters: dict, overhead: float) -> tuple:
    """Per-layer metrics from spans; layers the workload never entered read 0."""
    own = self_times(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def dur(name):
        return p50([s.seconds for s in by_name.get(name, [])])

    def self_p50(name, per_rep=False):
        return p50([own[s.id] / (s.attrs["reps"] if per_rep else 1) for s in by_name.get(name, [])])

    def ratio(rows, used, computed):
        total = sum(s.attrs[computed] for s in rows)
        return sum(s.attrs[used] for s in rows) / total if total else 0.0

    two_steps = by_name.get("estimation.two_step_estimate", [])
    estimates = by_name.get("estimation.estimate", [])
    # A two-step fit runs its first pass as a nested estimate span.
    top_fits = two_steps + [s for s in estimates if s.parent not in {t.id for t in two_steps}]
    writes: dict = {}
    for name in ("serialize.dump_json", "serialize.write_csv"):
        for span in by_name.get(name, []):
            writes[span.op] = writes.get(span.op, 0) + span.attrs["bytes"]
    values = {
        "panel.load_csv_s": dur("panel.load_csv"),
        "panel.load_csv_mb_per_s": p50([s.attrs["bytes"] / 1e6 / s.seconds
                                        for s in by_name.get("panel.load_csv", [])]),
        "estimation.build_m_s": dur("estimation.build_m"),
        "estimation.build_m_gflop": p50([s.attrs["gflop"] for s in by_name.get("estimation.build_m", [])]),
        "estimation.lagcov_useful_ratio": ratio(by_name.get("estimation.build_m", []),
                                                "lags_used", "lags_computed"),
        "estimation.sym_eigen_s": dur("estimation.sym_eigen"),
        "estimation.sym_eigen_calls": (len(by_name.get("estimation.sym_eigen", [])) / len(top_fits)
                                       if top_fits else 0.0),
        "estimation.eigvec_useful_ratio": ratio(estimates + two_steps, "eigvec_used", "eigvec_computed"),
        "estimation.estimate_self_s": self_p50("estimation.estimate"),
        "estimation.two_step_estimate_self_s": self_p50("estimation.two_step_estimate"),
        "estimation.m_eigenvalues_s": dur("estimation.m_eigenvalues"),
        "estimation.ratio_estimate_s": dur("estimation.ratio_estimate"),
        "simulation.generate_s": dur("simulation.generate"),
        "simulation.two_step_study_self_s_per_rep": self_p50("simulation.two_step_study", per_rep=True),
        "simulation.run_table1_self_s_per_rep": self_p50("simulation.run_table1", per_rep=True),
        "serialize.model_to_dict_s": dur("serialize.model_to_dict"),
        "serialize.dump_json_s": dur("serialize.dump_json"),
        "serialize.write_csv_s": dur("serialize.write_csv"),
        "serialize.bytes_per_op": p50(list(writes.values())),
        "cli.import_s": dur("cli.import"),
        "cli.main_self_s": self_p50("cli.main"),
        "trace_overhead_ratio": overhead,
        **counters,
    }
    metrics = spec_metrics("per_layer", values)
    not_entered = sorted(name for name, value in values.items() if value == 0.0)
    return metrics, {"layers_not_entered": not_entered, "spans_recorded": len(spans)}


def run(args) -> dict:
    bench_start = time.perf_counter()
    import hdfactor  # noqa: F401  (first import, counted in the report only)

    import_s = time.perf_counter() - bench_start
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, work)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.build_inputs()
            fresh_import_seconds()
            setups.append(time.perf_counter() - start)
        setup_s = median(setups)
        workload.warm_up()
        children = workload.runs_children  # whose CPU and memory counters to read
        report = {"workload": args.workload, "environment": environment(args.seed),
                  "in_process_import_s": import_s, "setup_runs_s": setups}

        if not args.trace:
            samples = measure(workload, args.seconds, 0, MIN_OPS)
            _, _, rss_mb = cpu_counters(children)
            workload.check_all(samples)
            metrics, report["metrics"] = end_to_end(workload, samples, setup_s, rss_mb)
        else:
            cpu0, csw0, _ = cpu_counters(children)
            wall0 = time.perf_counter()
            plain = measure(workload, args.seconds / 2, 0, MIN_TRACED_OPS)
            wall = time.perf_counter() - wall0
            cpu1, csw1, _ = cpu_counters(children)
            units = sum(s.units for s in plain)
            counters = {
                "simulation.cpu_s_per_rep": (cpu1 - cpu0) / units,
                "simulation.cpu_util": (cpu1 - cpu0) / (wall * len(os.sched_getaffinity(0))),
                "simulation.invol_csw_per_rep": (csw1 - csw0) / units,
            }
            tracer = Tracer()
            if children:
                workload.spans = tracer.spans
            else:
                instrument(tracer)
            try:
                traced = measure(workload, args.seconds / 2, len(plain), MIN_TRACED_OPS, tracer)
            finally:
                tracer.unwrap()
            samples = plain + traced
            workload.check_all(samples)
            overhead = p50([s.seconds for s in traced]) / p50([s.seconds for s in plain]) - 1
            metrics, report["trace"] = per_layer(tracer.spans, counters, overhead)
            report["metrics"] = metrics
        attempted = sum(s.attempted for s in samples)
        failed = sum(s.failed for s in samples)
        report["attempted"], report["failed"] = attempted, failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"report": report}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input sizes, for the benchmark's self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hdfactor" / "__init__.py").is_file():
        print(f"bench: no hdfactor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
