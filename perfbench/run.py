"""advmean benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload mom_acceptance --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs untraced and traced twins of every unit alternately over the same
inputs, in pairs of passes while another pair fits in ``--seconds``; it
reports the per-layer metrics of the traced passes and the tracing overhead,
and writes the spans of the set-up and first traced pass to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  Either way every report is
checked, the SHA-256 of the first pass's reports is printed (and compared
with ``perfbench/digests.json`` when the seed is recorded there), and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``python3 perfbench/run.py --write-benchmark-json`` rewrites
``BENCHMARK.json`` from the workload and metric definitions below.

Load is closed-loop: one caller, each operation starting when the previous
one has returned and been checked.  The package is imported from ``src`` of
the checkout this file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

RUN_SECONDS = 40
# Set-ups timed back to back before the measured passes; setup_s is their
# median.
SETUPS = 15

# (name, unit, better, bound): the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("cell_p50_ms", "ms", "lower", 0.25),
    ("cell_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Layers whose per-call metrics the traced run reports; the spans file holds
# every public function.
TRACED_LAYERS = (
    "harness.trial_stream",
    "harness.sample",
    "estimators.median_of_means",
    "harness.bench_mom",
    "harness.lr_test_error",
    "adversary.construct_q",
    "adversary.density_ratio",
    "distribution.standard_trim",
    "distribution.trim",
    "distribution.epsilon",
    "distribution.mixture",
    "distribution.reweight",
    "divergence.hellinger_sq",
    "distribution.load_distribution",
    "cli.main",
    "harness.verify_theorem",
    "harness.verify_neighborhood",
    "corpus.build",
)
PER_LAYER = tuple(
    (f"{layer}.{stat}", unit, "lower")
    for layer in TRACED_LAYERS
    for stat, unit in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))
) + (("trace.overhead_s", "s", "lower"),)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Facts about the machine and the inputs
# ---------------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    import numpy

    cpu_model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") in ("Unified", "Data"):
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_advmean():
    """Import advmean afresh, so that every set-up pays the package import."""
    for name in [m for m in sys.modules if m == "advmean" or m.startswith("advmean.")]:
        del sys.modules[name]
    advmean = importlib.import_module("advmean")
    for sub in ("cli", "corpus", "harness"):
        importlib.import_module(f"advmean.{sub}")
    return advmean


def advmean_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "advmean" or name.startswith("advmean.")]


def set_up(workload, seed: int, workdir: Path, tracer: Tracer | None = None):
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    advmean = import_advmean()
    if tracer is not None:
        tracer.install(advmean_modules())
    return advmean, workload.setup(advmean, seed, workdir)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Checker:
    """Checks every operation and keeps the digests that prove determinism.

    The first time a (input key, unit, cell) is run its report digests are
    recorded; every later run of the same inputs (a repeated pass, or the
    traced twin of an untraced pass) must reproduce them byte for byte.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference: dict[tuple, list[str]] = {}
        self.first_pass = hashlib.sha256()
        self.first_pass_reports = 0

    def check(self, pass_index: int, unit: int, cells) -> None:
        key_base = (self.workload.input_key(pass_index), unit)
        for index, cell in enumerate(cells):
            digests = [hashlib.sha256(op.report).hexdigest() for op in cell.ops]
            expected = self.reference.setdefault(key_base + (index,), digests)
            for op, digest, want in zip(cell.ops, digests, expected):
                self.attempted += 1
                if not op.ok:
                    self.failed += 1
                    print(f"FAILED {cell.label}: {op.error}", file=sys.stderr)
                elif digest != want:
                    self.failed += 1
                    print(f"FAILED {cell.label}: report differs from the "
                          "same inputs' earlier report", file=sys.stderr)
                if pass_index == 0 and expected is digests:
                    self.first_pass.update(op.report + b"\n")
                    self.first_pass_reports += 1
            # Keep only the digests, so memory does not grow with run length.
            cell.ops = []


def run_pass(workload, advmean, inputs, seed, pass_index, set_op, checker):
    """Run and check one whole pass; return its cells."""
    cells = []
    for unit in range(workload.units_per_pass):
        unit_cells = workload.run_unit(advmean, inputs, seed, pass_index, unit, set_op)
        checker.check(pass_index, unit, unit_cells)
        cells += unit_cells
    return cells


def _no_op(label):
    pass


def measure(workload, seed, seconds, workdir, checker):
    """Time ``SETUPS`` set-ups back to back, then run whole passes on the
    last one: pass 0 always, and another pass while it is predicted to end
    within ``seconds``.  Returns the set-up times, the cells of each pass and
    the inputs."""
    setup_times = []
    for _ in range(SETUPS):
        # Free the previous set-up's modules and inputs, which form reference
        # cycles, so that each set-up starts from the same heap.
        advmean = inputs = None
        gc.collect()
        start = time.perf_counter()
        advmean, inputs = set_up(workload, seed, workdir)
        setup_times.append(time.perf_counter() - start)

    passes = []
    deadline = time.perf_counter() + seconds
    last_pass = 0.0
    while not passes or time.perf_counter() + last_pass < deadline:
        start = time.perf_counter()
        passes.append(run_pass(workload, advmean, inputs, seed, len(passes), _no_op, checker))
        last_pass = time.perf_counter() - start
    return setup_times, passes, inputs


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); the maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    rank = len(ordered) - 11
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def end_to_end(workload, setup_times, passes):
    cells = [c for p in passes for c in p]
    latencies = [c.latency_s for c in cells]
    pass_rates = [len(p) / sum(c.latency_s for c in p) for p in passes]
    pct, tail_s = tail(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "cells_per_s": statistics.median(pass_rates),
        "cell_p50_ms": 1e3 * statistics.median(latencies),
        "cell_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"setup_s: median of {len(setup_times)} set-ups",
        f"cells_per_s: median over {len(passes)} passes of "
        f"{len(passes[0])} cells",
        f"cell_p50_ms: median of {len(cells)} cells",
        f"cell_tail_ms: p{pct:.1f} of {len(cells)} cells",
        "peak_rss_mb: peak resident set of this process",
    ]
    extra = []
    trials = [sum(c.trials for c in p) / sum(c.latency_s for c in p) for p in passes]
    if cells[0].trials:
        extra.append(("trials_per_s", statistics.median(trials), "trials/s",
                      f"median over {len(passes)} passes at n={workload.n}"))
    return values, notes, extra


def per_layer(tracer: Tracer, setup_end: int, pass_aggs: list[dict], overheads):
    setup_agg = tracer.aggregate(0, setup_end)
    values = {}
    for layer in TRACED_LAYERS:
        calls = setup_agg.get(layer, [0, 0.0])[0] + pass_aggs[0].get(layer, [0, 0.0])[0]
        self_s = setup_agg.get(layer, [0, 0.0])[1] + statistics.median(
            agg.get(layer, [0, 0.0])[1] for agg in pass_aggs
        )
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    values["trace.overhead_s"] = statistics.median(overheads)
    return values


def traced_run(workload, seed, seconds, workdir, checker, facts):
    """Run untraced and traced twins of every unit, alternately, over the
    same inputs, one pass of each at a time."""
    advmean_u, inputs_u = set_up(workload, seed, workdir / "untraced")
    tracer = Tracer()
    advmean_t, inputs_t = set_up(workload, seed, workdir / "traced", tracer)
    setup_end = tracer.mark()

    def set_op(label):
        tracer.op = label

    deadline = time.perf_counter() + seconds
    pass_aggs, overheads, pairs = [], [], []
    pass_index = 0
    last_pair = 0.0
    while pass_index == 0 or time.perf_counter() + last_pair < deadline:
        pair_start = time.perf_counter()
        lo = tracer.mark()
        walls = {False: 0.0, True: 0.0}
        for unit in range(workload.units_per_pass):
            # Twins run unit by unit, so that a change in machine speed
            # reaches both alike, and which twin runs first alternates, so
            # that neither always pays the first-call costs.
            first_traced = (pass_index + unit) % 2 == 1
            for is_traced in (first_traced, not first_traced):
                advmean, inputs, op = (advmean_t, inputs_t, set_op) if is_traced else (
                    advmean_u, inputs_u, _no_op)
                start = time.perf_counter()
                cells = workload.run_unit(advmean, inputs, seed, pass_index, unit, op)
                walls[is_traced] += time.perf_counter() - start
                checker.check(pass_index, unit, cells)
        pass_aggs.append(tracer.aggregate(lo))
        if pass_index > 0:
            del tracer.spans[lo:]  # only the first traced pass is written out
        overheads.append(walls[True] - walls[False])
        pairs.append((walls[False], walls[True]))
        last_pair = time.perf_counter() - pair_start
        pass_index += 1
    tracer.uninstall()

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path, {"workload": workload.name, "seed": seed, **facts})
    notes = [
        f"traced {pass_index} passes; calls are set-up plus one pass, self_s is "
        "set-up plus the median over passes",
        f"untraced/traced pass wall s: "
        + ", ".join(f"{u:.3f}/{t:.3f}" for u, t in pairs),
        f"spans of set-up and pass 0 written to {spans_path.relative_to(ROOT)}",
    ]
    top = sorted(tracer.aggregate().items(), key=lambda kv: -kv[1][1])[:12]
    notes += [f"  {name}: {calls} calls, {s:.4f} s self" for name, (calls, s) in top]
    return per_layer(tracer, setup_end, pass_aggs, overheads), notes, inputs_u


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def recorded_digest(workload_name: str, seed: int) -> str | None:
    try:
        recorded = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return None
    if recorded.get("seed") != seed:
        return None
    return recorded.get("digests", {}).get(workload_name)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="rewrite BENCHMARK.json from the definitions here")
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        text = json.dumps(benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if not (SRC / "advmean" / "__init__.py").is_file():
        print(f"error: no advmean package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    facts = machine_facts()
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("facts " + json.dumps(facts, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    checker = Checker(workload)
    try:
        if args.trace:
            metrics, notes, inputs = traced_run(workload, args.seed, args.seconds,
                                                workdir, checker, facts)
            metric_units = {name: unit for name, unit, _ in PER_LAYER}
            extra = []
        else:
            setup_times, passes, inputs = measure(
                workload, args.seed, args.seconds, workdir, checker
            )
            metrics, notes, extra = end_to_end(workload, setup_times, passes)
            metric_units = {name: unit for name, unit, _, _ in END_TO_END}
        for line in workload.describe(inputs):
            print("input " + line)
    except Exception:
        traceback.print_exc()
        print("error: the workload raised outside a checked operation", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in notes:
        print("note " + note)
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {metric_units[name]}")
    for name, value, unit, note in extra:
        print(f"metric {name} = {value!r} {unit} ({note})")
    share = checker.failed / checker.attempted
    print(f"metric failed_share = {share!r} ({checker.failed} of "
          f"{checker.attempted} operations)")

    digest = checker.first_pass.hexdigest()
    print(f"digest {workload.name} seed={args.seed} sha256={digest} "
          f"({checker.first_pass_reports} reports of pass 0)")
    want = recorded_digest(workload.name, args.seed)
    if want is not None and want != digest:
        print(f"digest MISMATCH {workload.name}: recorded {want}, got {digest}")

    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": metric_units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
