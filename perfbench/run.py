#!/usr/bin/env python3
"""pricelab benchmark: run one workload through the real CLI and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/`` (nothing is installed).  Inputs are generated from
``--seed`` before any timing starts.

``--trace 0`` runs each command of the workload in a fresh interpreter, as
a user runs it (started from ``spawner.py``), repeating the whole workload
until ``--seconds`` are used, and reports the end-to-end metrics: medians
over the repetitions, adjusted for the host's speed (see ``CALIBRATION``),
and ``success_ratio``, one minus the share of products in failed
operations.  ``--trace 1`` runs the same commands in
this process through ``pricelab.cli.main``, alternating untraced and
traced repetitions, and reports per-layer metrics derived from the spans
(see ``tracing.py``).

Every output is checked: against the committed reference digests when the
inputs are those of the reference seed (for ``sample-compare``, at every
seed), otherwise by its structure.  The digest of the 14 canonical Q
tables is checked on every invocation, after timing.  The last line of
standard output is one JSON object; a result file with the run manifest
and the raw samples is written under ``perfbench/out/``.  The exit code is
0 only when every check passed.

``--write-reference`` regenerates ``reference.json`` from the current
source at the reference seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import SPAN_FIELDS, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0

# The whole invocation must end within 180 s; leave room for reporting.
DEADLINE_S = 165.0
MIN_REPS = 3
MIN_PROBES = 7

# A shared host's speed drifts by a third within an hour and slows every
# process alike, so raw wall times of the same code measured minutes apart
# differ by more than a useful regression bound.  Next to every repetition
# a fresh interpreter imports numpy, which is work of the same kind as the
# program's start-up and does not involve pricelab.  Times are divided by
# that probe's median over CALIBRATION_REFERENCE_S, roughly its time on
# the 2-vCPU host the bounds were set on; a reported time is the wall time
# at that reference speed.  The raw samples are in the result file.
CALIBRATION = "import numpy"
CALIBRATION_REFERENCE_S = 0.2

END_TO_END_UNITS = {
    "run_s": "s",
    "products_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "kernels.train_kernel_s": "s",
    "kernels.updates_per_s": "1/s",
    "rng.split_seed_s": "s",
    "rng.split_seed_calls": "count",
    "qlearn.train_s": "s",
    "qlearn.train_self_s": "s",
    "qlearn.epsilon_schedule_s": "s",
    "qlearn.evaluate_greedy_s": "s",
    "qlearn.q_updates": "count",
    "qlearn.oracle_match_ratio": "ratio",
    "domain.price_grid_s": "s",
    "catalog.parse_s": "s",
    "catalog.rows": "count",
    "catalog.rejected": "count",
    "baselines.analytic_s": "s",
    "baselines.grid_search_s": "s",
    "baselines.line_search_s": "s",
    "baselines.calls": "count",
    "experiment.run_experiment_s": "s",
    "experiment.self_s": "s",
    "experiment.render_report_s": "s",
    "experiment.revenue_curves_s": "s",
    "experiment.output_bytes": "bytes",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "tracing.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run: no program source, or a reference run failed."""


@dataclass
class Verifier:
    """Checks command outputs and tallies failed operations."""

    reference: dict | None  # label -> sha256, or None when unverified
    attempted: int = 0
    failed: int = 0
    products_attempted: int = 0
    products_failed: int = 0
    digests: dict = field(default_factory=dict)
    structure_checked: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def check(self, cmd: workloads.Command, exit_code: int | None, data: bytes | None) -> None:
        self.attempted += 1
        self.products_attempted += cmd.products
        problems = []
        if exit_code != cmd.exit_code:
            problems.append(f"{cmd.label}: exit code {exit_code}, expected {cmd.exit_code}")
        if data is None:
            problems.append(f"{cmd.label}: no output file")
        else:
            digest = hashlib.sha256(data).hexdigest()
            first = self.digests.setdefault(cmd.label, digest)
            if digest != first:
                problems.append(f"{cmd.label}: output differs between repetitions")
            elif self.reference is not None:
                if digest != self.reference.get(cmd.label):
                    problems.append(f"{cmd.label}: digest {digest} does not match the reference")
            elif cmd.label not in self.structure_checked:
                self.structure_checked.add(cmd.label)
                problems += _structure(cmd, data)
        if problems:
            self.failed += 1
            self.products_failed += cmd.products
            self.problems += problems

    def fail(self, products: int, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.products_attempted += products
        self.products_failed += products
        self.problems.append(problem)

    @property
    def error_ratio(self) -> float:
        return self.products_failed / self.products_attempted if self.products_attempted else 1.0


def _structure(cmd: workloads.Command, data: bytes) -> list[str]:
    try:
        return cmd.check(data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{cmd.label}: output does not parse: {exc!r}"]


def read_output(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Spawned:
    wall_s: float
    exit_code: int
    cpu_s: float
    maxrss_mb: float


class Spawner:
    """Client of ``spawner.py``, the small process that starts every
    measured command so that its peak RSS is its own."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], env=_env(), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def run(self, argv: list[str], stderr_path: Path) -> Spawned:
        request = {"argv": argv, "stderr": str(stderr_path),
                   "timeout": max(1.0, self.deadline - time.monotonic())}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError(f"spawner exited with code {self.proc.wait()}")
        return Spawned(**json.loads(reply))

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # still running a command: stop its whole group
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def measure_end_to_end(wl: workloads.Workload, seconds: float, deadline: float,
                       verifier: Verifier) -> tuple[dict, dict]:
    with Spawner(deadline) as spawner:
        return _measure_end_to_end(wl, seconds, deadline, verifier, spawner)


def _measure_end_to_end(wl: workloads.Workload, seconds: float, deadline: float,
                        verifier: Verifier, spawner: Spawner) -> tuple[dict, dict]:
    python = sys.executable
    probes = {"setup_s": [python, "-c", "import pricelab.cli"],
              "calibration_s": [python, "-c", CALIBRATION]}
    err = OUT / "stderr.txt"
    spawner.run(probes["setup_s"], err)  # byte-compiles the package once, untimed

    samples = {"run_s": [], "setup_s": [], "calibration_s": [], "peak_rss_mb": [], "cpu_s": [],
               "commands": []}

    def probe() -> float:
        for name, argv in probes.items():
            samples[name].append(spawner.run(argv, err).wall_s)
        return sum(samples[name][-1] for name in probes)

    start = time.monotonic()
    while True:
        probe_s = probe()
        rep = []
        for cmd in wl.commands:
            cmd.output.unlink(missing_ok=True)
            result = spawner.run([python, "-m", "pricelab.cli"] + cmd.argv, err)
            verifier.check(cmd, result.exit_code, read_output(cmd.output))
            if result.exit_code != cmd.exit_code:
                verifier.problems.append(err.read_text(errors="replace")[-2000:])
            rep.append(result)
        samples["run_s"].append(sum(r.wall_s for r in rep))
        samples["peak_rss_mb"].append(max(r.maxrss_mb for r in rep))
        samples["cpu_s"].append(sum(r.cpu_s for r in rep))
        samples["commands"].append({c.label: r.wall_s for c, r in zip(wl.commands, rep)})
        per_rep = statistics.median(samples["run_s"]) + probe_s
        if _done(start, len(samples["run_s"]), per_rep, seconds, deadline):
            break
    while len(samples["setup_s"]) < MIN_PROBES:
        probe()

    summary = {name: quartiles(samples[name])
               for name in ("run_s", "setup_s", "calibration_s", "peak_rss_mb", "cpu_s")}
    host_factor = summary["calibration_s"]["median"] / CALIBRATION_REFERENCE_S
    run_s = summary["run_s"]["median"] / host_factor
    metrics = {
        "run_s": run_s,
        "products_per_s": wl.rows / run_s,
        "setup_s": summary["setup_s"]["median"] / host_factor,
        "peak_rss_mb": summary["peak_rss_mb"]["median"],
    }
    return metrics, {"summary": summary, "host_factor": host_factor, "samples": samples}


def _done(start: float, reps: int, per_rep: float, seconds: float, deadline: float) -> bool:
    """Stop once another repetition would overrun ``seconds`` (after
    MIN_REPS), or could overrun the invocation's deadline."""
    now = time.monotonic()
    return (reps >= MIN_REPS and now - start + per_rep > seconds) or now + 2 * per_rep > deadline


def _run_in_process(wl: workloads.Workload, verifier: Verifier) -> float:
    """One repetition through ``pricelab.cli.main``, looked up at call time
    so that the tracer's wrapper is the one called when installed."""
    import pricelab.cli

    start = time.perf_counter()
    codes = []
    with contextlib.redirect_stderr(io.StringIO()):
        for cmd in wl.commands:
            cmd.output.unlink(missing_ok=True)
            try:
                codes.append(pricelab.cli.main(cmd.argv))
            except Exception:  # a crash is a failed operation, reported with its traceback
                codes.append(None)
                verifier.problems.append(traceback.format_exc())
    wall = time.perf_counter() - start
    for cmd, code in zip(wl.commands, codes):
        verifier.check(cmd, code, read_output(cmd.output))
    return wall


def measure_layers(wl: workloads.Workload, seconds: float, deadline: float,
                   verifier: Verifier, spans_path: Path) -> tuple[dict, dict]:
    import pricelab.cli  # noqa: F401  (imported before timing)

    tracer = Tracer()
    plain, traced, cpu, per_run = [], [], [], []
    missing: list[str] = []
    start = time.monotonic()
    while True:
        plain.append(_run_in_process(wl, verifier))
        tracer.run_id += 1
        missing = tracer.install()
        try:
            cpu0 = time.process_time()
            traced.append(_run_in_process(wl, verifier))
            cpu.append(time.process_time() - cpu0)
        finally:
            tracer.uninstall()
        per_pair = statistics.median(plain) + statistics.median(traced)
        if _done(start, len(traced), per_pair, seconds, deadline):
            break

    for run_id in range(1, tracer.run_id + 1):
        spans = [s for s in tracer.spans if s[0] == run_id]
        m = layer_metrics(spans, tracer.counts[run_id], threading.main_thread().ident)
        m["process.cpu_s"] = cpu[run_id - 1]
        per_run.append(m)
    metrics = {name: statistics.median(r[name] for r in per_run) for name in PER_LAYER_UNITS
               if name != "tracing.overhead_s"}
    metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans}, f, separators=(",", ":"))
    detail = {
        "summary": {"untraced_s": quartiles(plain), "traced_s": quartiles(traced)},
        "samples": {"untraced_s": plain, "traced_s": traced, "per_run": per_run},
        "missing_targets": missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def canonical_qtables_digest() -> str:
    """SHA-256 over the 14 canonical Q tables (defaults, master seed 0)."""
    import numpy as np
    import pricelab as pl

    h = hashlib.sha256()
    for index, spec in enumerate(pl.sample_catalog()):
        hp = pl.Hyperparams(seed=pl.split_seed(0, index))
        q, _ = pl.train(spec, pl.default_price_grid(spec), hp=hp)
        h.update(np.ascontiguousarray(q.values, dtype="<f8").tobytes())
    return h.hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pricelab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(seed: int) -> dict:
    import numpy
    from pricelab import _kernels

    return {
        "kernel": _kernels.resolve_backend(),
        "numba_importable": bool(_kernels.HAVE_NUMBA),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": seed,
    }


def import_program() -> None:
    """Import pricelab from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "pricelab" / "__init__.py").is_file():
        raise BenchError(f"no pricelab source under {SRC}")
    sys.path.insert(0, str(SRC))
    import pricelab

    if Path(pricelab.__file__).resolve().parent != (SRC / "pricelab").resolve():
        raise BenchError(f"imported pricelab from {pricelab.__file__}, not from {SRC}")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def run(name: str, seed: int, seconds: float, trace: bool, scale=workloads.FULL,
        check_canonical: bool = False, deadline: float | None = None) -> dict:
    """Run one workload; returns the full result document."""
    deadline = deadline if deadline is not None else time.monotonic() + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(name, seed, OUT / "work" / name, scale)
    reference = load_reference()
    verified = scale == workloads.FULL and (seed == reference["seed"] or not wl.seeded)
    verifier = Verifier(reference["workloads"][name] if verified else None)
    if trace:
        spans_path = OUT / f"spans-{name}-s{seed}.json"
        metrics, detail = measure_layers(wl, seconds, deadline, verifier, spans_path)
        units = PER_LAYER_UNITS
    else:
        metrics, detail = measure_end_to_end(wl, seconds, deadline, verifier)
        units = END_TO_END_UNITS
    canonical_status = "not checked"
    if check_canonical:  # after timing, so its load does not precede the first repetition
        canonical = canonical_qtables_digest()
        canonical_status = "match" if canonical == reference["canonical_qtables"] else "mismatch"
        if canonical_status == "mismatch":
            verifier.fail(14, f"canonical Q-table digest {canonical} does not match the reference")
    if not trace:
        metrics["success_ratio"] = 1.0 - verifier.error_ratio
    correct = verifier.failed == 0
    line = {
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "manifest": manifest(seed),
        "verification": {
            "digest": "verified" if verified else "unverified",
            "canonical_qtables": canonical_status,
            "output_sha256": verifier.digests,
            "error_ratio": verifier.error_ratio,
            "problems": verifier.problems,
        },
        **detail,
        "result": line,
    }


def write_reference() -> None:
    """Record output digests at the reference seed from the current source."""
    doc = {"seed": REFERENCE_SEED, "canonical_qtables": canonical_qtables_digest(), "workloads": {}}
    with Spawner(time.monotonic() + 600) as spawner:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, REFERENCE_SEED, OUT / "work" / name)
            digests = {}
            for cmd in wl.commands:
                cmd.output.unlink(missing_ok=True)
                result = spawner.run([sys.executable, "-m", "pricelab.cli"] + cmd.argv,
                                     OUT / "stderr.txt")
                data = read_output(cmd.output)
                problems = [] if data is None else _structure(cmd, data)
                if result.exit_code != cmd.exit_code or data is None or problems:
                    raise BenchError(f"{name}/{cmd.label}: exit {result.exit_code}, {problems}")
                digests[cmd.label] = hashlib.sha256(data).hexdigest()
            doc["workloads"][name] = digests
    REFERENCE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _print_summary(doc: dict) -> None:
    for name, stats in doc["summary"].items():
        print(f"{name:>16}: median {stats['median']:.6g}  "
              f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}")
    if "host_factor" in doc:
        print(f"     host_factor: {doc['host_factor']:.4f}  (calibration median / "
              f"{CALIBRATION_REFERENCE_S} s); reported, adjusted:")
    for name, metric in doc["result"]["metrics"].items():
        print(f"{name:>28}: {metric['value']:.6g} {metric['unit']}")
    check = doc["verification"]
    print(f"     error_ratio: {check['error_ratio']:.4f}  (outputs {check['digest']}, "
          f"canonical Q tables {check['canonical_qtables']})")
    for problem in check["problems"]:
        print(f"FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        import_program()
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  check_canonical=True, deadline=deadline)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    _print_summary(doc)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(doc["result"]))
    return 0 if doc["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
