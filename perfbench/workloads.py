"""The three benchmark workloads.

A workload builds its inputs once (``setup``) and then runs *units*: a unit
is the smallest group of cells timed and checked together, and
``units_per_pass`` units make one pass over the workload's whole input set.
A *cell* is one (member, n, delta) configuration; each cell yields one or
more *operations* (reports), each of which is checked for correctness.

All calls go through the public functions of ``advmean.harness``,
``advmean.cli`` and ``advmean.corpus`` (plus ``advmean.construct_q``, the
package's public partner construction), looked up on the module at call
time, so the tracer's wrappers see them.  ``workers`` is never passed.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

N_GRID = (1000, 10000, 100000)
DELTA_GRID = (0.05, 0.01, 0.001)


@dataclass
class Op:
    """One report: its canonical bytes and whether every check held."""

    report: bytes
    ok: bool
    error: str


@dataclass
class Cell:
    label: str
    latency_s: float
    trials: int
    ops: list[Op]


def _report_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


class _MonteCarlo:
    """A cell is one pass of seeded reports over all members at one (n, delta).

    Cells cost the same on every pass, so their latency has one mode; every
    pass draws fresh trial streams, so no pass can reuse another's work.
    """

    units_per_pass = 1

    def input_key(self, pass_index):
        return pass_index

    def describe(self, inputs):
        return [f"{member}: {p.num_atoms} atoms" for member, p in inputs.items()]

    def run_unit(self, advmean, inputs, seed, pass_index, unit, set_op):
        cfg = advmean.harness.TrialConfig(
            n=self.n,
            delta=self.delta,
            trials=self.trials,
            seed=seed * 100_000 + pass_index,
        )
        label = f"n={self.n}/delta={self.delta}/pass={pass_index}"
        ops = []
        elapsed = 0.0
        for member, p in inputs.items():
            set_op(f"{member}/{label}")
            start = time.perf_counter()
            try:
                report = self.report(advmean, p, cfg)
            except Exception as exc:  # counted as a failed operation
                elapsed += time.perf_counter() - start
                ops.append(Op(b"", False, f"{member}: {type(exc).__name__}: {exc}"))
            else:
                elapsed += time.perf_counter() - start
                ok = report["pass"] is True
                ops.append(Op(_report_bytes(report), ok, f"{member}: pass gate false"))
        return [Cell(label, elapsed, self.trials * len(inputs), ops)]


class MomAcceptance(_MonteCarlo):
    name = "mom_acceptance"
    why = (
        "bench_mom at the criterion-4 config on a 2-atom and a 200-atom member; "
        "time is in trial streams, inverse-CDF sampling and median-of-means"
    )
    members = ("two_point_symmetric", "pareto_15")
    n, delta, trials = 1400, 0.05, 500

    def setup(self, advmean, seed, workdir):
        return {m: advmean.corpus.build(m) for m in self.members}

    def report(self, advmean, p, cfg):
        return advmean.harness.bench_mom(p, cfg)


class LrPairs(_MonteCarlo):
    name = "lr_pairs"
    why = (
        "construct_q then lr_test_error at the criterion-5 config on all six "
        "members; same trial streams as MoM but its own inline LR sampling"
    )
    # lr_test_error passes when its error rate is at least
    # delta - 3 sqrt(0.25 / trials); 2000 trials put that floor at 0.0165,
    # so a pair the test tells apart too well fails the gate.
    n, delta, trials = 1000, 0.05, 2000

    def setup(self, advmean, seed, workdir):
        return {m: advmean.corpus.build(m) for m in advmean.corpus.names()}

    def report(self, advmean, p, cfg):
        res = advmean.construct_q(p, cfg.n, cfg.delta)
        report = advmean.harness.lr_test_error(p, res.q, cfg)
        return {"construct": res.meta_dict(), "lr_test_error": report, "pass": report["pass"]}


def _gaussian_grid(rng: random.Random, atoms: int, span: float):
    """Jittered N(0, 1) grid on [-span, span] with pdf-proportional masses."""
    step = 2.0 * span / (atoms - 1)
    xs = [-span + step * (i + rng.uniform(-0.25, 0.25)) for i in range(atoms)]
    ws = [math.exp(-0.5 * x * x) for x in xs]
    total = math.fsum(ws)
    return xs, [w / total for w in ws]


def _pareto_grid(rng: random.Random, alpha: float, atoms: int):
    """Equal-probability bins of Pareto(alpha), each atom at its bin's
    conditional mean, with masses jittered by up to 50% and renormalized."""
    coeff = alpha / (alpha - 1.0)
    power = 1.0 - 1.0 / alpha
    xs = []
    for i in range(atoms):
        lo = (1.0 - i / atoms) ** power
        hi = 0.0 if i + 1 == atoms else (1.0 - (i + 1) / atoms) ** power
        xs.append(atoms * coeff * (lo - hi))
    ws = [1.0 + 0.5 * rng.random() for _ in range(atoms)]
    total = math.fsum(ws)
    return xs, [w / total for w in ws]


def wide_members(seed: int) -> dict[str, tuple[list, list]]:
    """Members with 10^4 atoms, as users' empirical distributions would be."""
    rng = random.Random(seed)
    gx, gw = _gaussian_grid(rng, 10_001, 6.0)
    px, pw = _pareto_grid(rng, 2.5, 10_000)
    ax, aw = _gaussian_grid(rng, 10_001, 6.0)
    # Analogue of two_point_asymmetric: the 0.1% outlier makes n=1000 take
    # the mixture branch.
    ax.append(1000.0)
    aw = [0.999 * w for w in aw] + [0.001]
    return {
        "wide_gaussian": (gx, gw),
        "wide_pareto_25": (px, pw),
        "wide_asymmetric": (ax, aw),
    }


class VerifyCli:
    name = "verify_cli"
    why = (
        "in-process CLI construct, verify and neighborhood over the 9-cell grid "
        "on the corpus (per-call overhead) and 10^4-atom files (per-atom cost)"
    )
    subcommands = ("construct", "verify", "neighborhood")
    rows = [(n, d) for n in N_GRID for d in DELTA_GRID]
    units_per_pass = len(rows)

    def setup(self, advmean, seed, workdir):
        files = {}
        for member in advmean.corpus.names():
            path = workdir / f"{member}.json"
            rc = advmean.cli.main(["gen", "--name", member, "--out", str(path)])
            if rc != 0:
                raise RuntimeError(f"advmean gen --name {member} exited {rc}")
            files[member] = path
        for member, (xs, ws) in wide_members(seed).items():
            path = workdir / f"{member}.json"
            payload = {"atoms": [{"x": x, "w": w} for x, w in zip(xs, ws)]}
            path.write_text(json.dumps(payload), encoding="utf-8")
            files[member] = path
        (workdir / "out").mkdir(exist_ok=True)
        return files

    def input_key(self, pass_index):
        return 0

    def describe(self, inputs):
        return [
            f"{member}: {len(json.loads(path.read_bytes())['atoms'])} atoms, "
            f"{path.stat().st_size} bytes"
            for member, path in inputs.items()
        ]

    def run_unit(self, advmean, inputs, seed, pass_index, unit, set_op):
        n, delta = self.rows[unit]
        cells = []
        for member, path in inputs.items():
            label = f"{member}/n={n}/delta={delta}"
            outs = [
                path.parent / "out" / f"{member}-{n}-{delta}-{sub}.json"
                for sub in self.subcommands
            ]
            argvs = [
                [sub, "--in", str(path), "--n", str(n), "--delta", str(delta),
                 "--out", str(out)]
                for sub, out in zip(self.subcommands, outs)
            ]
            codes = []
            start = time.perf_counter()
            for sub, argv in zip(self.subcommands, argvs):
                set_op(f"{label}/{sub}")
                try:
                    codes.append(advmean.cli.main(argv))
                except Exception as exc:  # counted as a failed operation
                    codes.append(f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - start
            ops = [
                _check_cli_output(sub, code, out)
                for sub, code, out in zip(self.subcommands, codes, outs)
            ]
            cells.append(Cell(label, latency, 0, ops))
        return cells


def _check_cli_output(sub: str, code, out: Path) -> Op:
    if code != 0:
        return Op(b"", False, f"{sub} exited {code}")
    report = out.read_bytes()
    payload = json.loads(report)
    if sub == "construct":
        ok = bool(payload.get("atoms"))
        return Op(report, ok, "construct wrote no atoms")
    ok = payload.get("pass") is True and payload.get("degenerate") is False
    return Op(report, ok, f"{sub} report does not pass")


WORKLOADS = {w.name: w for w in (MomAcceptance(), LrPairs(), VerifyCli())}
