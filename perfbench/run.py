"""Benchmark of the cosetlfun command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.  Each
workload (see workloads.py) is a fixed sequence of CLI invocations, each run
in a fresh child process with the CLI defaults: no `--workers`, no
`COSETLFUN_WORKERS`, and the benchmark seed passed as `--seed`.

--trace 0 prints the end-to-end metrics:
  wall_s       median wall time of the whole sequence, repeated for S seconds
  setup_s      median wall time of a child that imports cosetlfun.cli and
               builds modulus(p, k) for each modulus of the workload
  peak_rss_mb  largest peak RSS (MiB) of any CLI child, from its own wait4
               rusage
--trace 1 repeats the untraced sequence for S seconds, then runs it twice
under trace_cli.py and prints the per-layer metrics: calls and self time of
each traced function, the ratio metrics, and the tracing overhead (traced
minus untraced median sequence wall time, including writing the spans out).
Self times are wall times summed over threads, so with the CLI's default two
workers they can exceed the sequence wall time.

Every CLI invocation passes the correctness gate or counts as failed: exit
status 0, the seed commit's row count, and, for the columns the CLI itself
only checks for finiteness, agreement with reference.json within
|x - ref| <= tol * max(1, |ref|).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
machine, the source, the sample counts and fail_ratio.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from trace_cli import HANDLER, TARGETS
from workloads import NONZERO_ALL, WORKLOADS, invocation_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
TRACE_CLI = HERE / "trace_cli.py"
# what the `cosetlfun` console script runs
CLI_CODE = "import sys; from cosetlfun.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_REPEATS = 9

TRACED = [name for name, _, _ in TARGETS] + [HANDLER]
# metrics the two traced runs must reproduce exactly
COUNT_UNITS = {f"{name}.calls": "count" for name in TRACED} | {
    "modular.modulus.hit_ratio": "ratio",
    "gauss.gauss_sum_brute.unique_ratio": "ratio",
    "lcentral.l_value.unique_ratio": "ratio",
    "lcentral.l_value.grid_points": "count",
    "lcentral.l_value.max_bound": "abs_err",
    "report.bytes": "bytes",
}
TIME_METRICS = [f"{name}.self_s" for name in TRACED] + [
    "lcentral.l_value.self_s_per_grid_point",
    "cli.import_s",
    "trace.overhead_s",
]


@dataclass
class Child:
    wall_s: float
    exit_code: int
    rss_mb: float


@dataclass
class Sequence:
    wall_s: float = 0.0
    rss_mb: float = 0.0
    summaries: list = field(default_factory=list)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COSETLFUN_WORKERS"}
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + old if old else src
    return env


def spawn(argv: list, out: Path, err: Path, env: dict) -> Child:
    """Run argv to completion; wall time and the child's own peak RSS."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Child(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)


def gate(inv: tuple, child: Child, out: Path, reference: dict) -> str | None:
    """Why this invocation fails the correctness gate, or None."""
    if child.exit_code != 0:
        return f"exit status {child.exit_code}"
    ref = reference["invocations"][invocation_key(inv)]
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != ref["rows"]:
        return f"{len(rows)} rows, the seed commit gave {ref['rows']}"
    tol = reference["tol"]
    for col, want in ref.get("values", {}).items():
        for i, (row, x_ref) in enumerate(zip(rows, want)):
            try:
                x = float(row[col])
            except (KeyError, TypeError, ValueError):
                return f"row {i} has no number in column {col}"
            if not abs(x - x_ref) <= tol * max(1.0, abs(x_ref)):
                return f"row {i} {col} = {x!r}, the seed commit gave {x_ref!r}"
    return None


class Bench:
    def __init__(self, workload, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.env = child_env()
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failures = []

    def setup_child(self) -> float:
        code = "import cosetlfun.cli\nfrom cosetlfun.modular import modulus\n"
        code += "".join(f"modulus({p}, {k})\n" for p, k in self.workload.moduli)
        child = spawn(
            [sys.executable, "-c", code],
            self.work / "setup.out",
            self.work / "setup.err",
            self.env,
        )
        if child.exit_code != 0:
            raise RuntimeError(f"set-up child exited {child.exit_code}")
        return child.wall_s

    def sequence(self, trace_round: int | None = None) -> Sequence:
        seq = Sequence()
        for i, inv in enumerate(self.workload.invocations):
            args = [*inv, "--seed", str(self.seed)]
            out, err = self.work / f"out{i}.csv", self.work / f"err{i}.txt"
            if trace_round is None:
                argv = [sys.executable, "-c", CLI_CODE, *args]
            else:
                summary = self.work / f"trace{trace_round}-{i}.json"
                spans = self.work / f"trace{trace_round}-{i}.spans.tsv"
                argv = [sys.executable, str(TRACE_CLI), str(summary), str(spans), *args]
            child = spawn(argv, out, err, self.env)
            seq.wall_s += child.wall_s
            seq.rss_mb = max(seq.rss_mb, child.rss_mb)
            self.attempted += 1
            reason = gate(inv, child, out, self.reference)
            if reason is not None:
                tail = err.read_text(errors="replace").strip().splitlines()[-3:]
                self.failures.append(f"{invocation_key(inv)}: {reason} {tail}")
            elif trace_round is not None:
                seq.summaries.append(json.loads(summary.read_text()))
        return seq

    def measure(self, seconds: float) -> list[Sequence]:
        """Repeat the sequence while the next one should end within seconds."""
        samples = []
        start = time.perf_counter()
        while True:
            samples.append(self.sequence())
            elapsed = time.perf_counter() - start
            if elapsed * (len(samples) + 1) / len(samples) > seconds:
                return samples


def layer_metrics(summaries: list) -> tuple[dict, dict]:
    """Counts and times of one traced sequence, summed over invocations."""
    calls, self_s = defaultdict(int), defaultdict(float)
    for s in summaries:
        for name, f in s["funcs"].items():
            calls[name] += f["calls"]
            self_s[name] += f["self_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    grid_points = sum(s["l_grid_points"] for s in summaries)
    counts = {f"{name}.calls": calls[name] for name in TRACED} | {
        "modular.modulus.hit_ratio": 1.0
        - ratio(calls["modular.table_build"], calls["modular.modulus"]),
        "gauss.gauss_sum_brute.unique_ratio": ratio(
            sum(s["gauss_distinct"] for s in summaries),
            calls["gauss.gauss_sum_brute"],
        ),
        "lcentral.l_value.unique_ratio": ratio(
            sum(s["l_distinct"] for s in summaries), calls["lcentral.l_value"]
        ),
        "lcentral.l_value.grid_points": grid_points,
        "lcentral.l_value.max_bound": max(
            (s["l_max_bound"] for s in summaries), default=0.0
        ),
        "report.bytes": sum(s["report_bytes"] for s in summaries),
    }
    times = {f"{name}.self_s": self_s[name] for name in TRACED} | {
        "lcentral.l_value.self_s_per_grid_point": ratio(
            self_s["lcentral.l_value"], grid_points
        ),
        "cli.import_s": sum(s["import_s"] for s in summaries),
    }
    return counts, times


def tail_percentile(values: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n/a (needs more than 10 samples, have {n})"
    pct = 100 * (n - 10) / n
    return f"p{pct:.0f}={sorted(values)[n - 11]:.4f} s"


def source_id() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    return f"commit={commit} src_sha256={digest.hexdigest()[:16]}"


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict, list]:
    setups = [bench.setup_child() for _ in range(SETUP_REPEATS)]
    samples = bench.measure(seconds)
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(s.rss_mb for s in samples),
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    return metrics, units, samples


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict, list, bool]:
    """Untraced samples for the overhead base, then two traced sequences
    whose counts must agree and be nonzero where the workload expects."""
    samples = bench.measure(seconds)
    rounds = [bench.sequence(trace_round=r) for r in (1, 2)]
    units = COUNT_UNITS | dict.fromkeys(TIME_METRICS, "s")
    if not all(len(r.summaries) == len(bench.workload.invocations) for r in rounds):
        # a traced invocation failed the gate and is counted as failed
        return dict.fromkeys(units, 0.0), units, samples, False
    (c1, t1), (c2, t2) = (layer_metrics(r.summaries) for r in rounds)
    ok = True
    if c1 != c2:
        diff = sorted(k for k in c1 if c1[k] != c2[k])
        print(f"error: traced runs disagree on {diff}", file=sys.stderr)
        ok = False
    metrics = c1 | {k: (t1[k] + t2[k]) / 2 for k in t1}
    metrics["trace.overhead_s"] = statistics.median(
        r.wall_s for r in rounds
    ) - statistics.median(s.wall_s for s in samples)
    zero = [m for m in NONZERO_ALL + bench.workload.nonzero if not metrics[m]]
    if zero:
        print(f"error: zero on {bench.workload.name}: {zero}", file=sys.stderr)
        ok = False
    return metrics, units, samples, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "cosetlfun" / "cli.py").is_file():
        print(f"error: no cosetlfun sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    # the CLI seeds numpy's default_rng, which takes non-negative integers
    bench = Bench(wl, args.seed % 2**64, reference)
    print(
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={metadata.version('numpy')} {source_id()}"
    )

    bench.setup_child()  # untimed warm-up: writes the bytecode caches
    if args.trace == 0:
        metrics, units, samples = end_to_end(bench, args.seconds)
        ok = True
    else:
        metrics, units, samples, ok = per_layer(bench, args.seconds)

    for f in bench.failures:
        print(f"FAIL {wl.name}: {f}", file=sys.stderr)
    failed = len(bench.failures)
    walls = [s.wall_s for s in samples]
    print(
        f"workload={wl.name} seed={args.seed} trace={args.trace} "
        f"samples={len(walls)} wall_s: median={statistics.median(walls):.4f} s "
        f"tail={tail_percentile(walls)} all={[round(w, 4) for w in walls]}"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_ratio = {failed / bench.attempted:.4g} ratio ({failed}/{bench.attempted} invocations)")
    result = {
        "correct": ok and failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
