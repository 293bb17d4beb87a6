"""The library's reports are pinned byte for byte.

For each verifier and input distribution, the digest is the SHA-256 of the
reports over the 9-cell grid plus ``(100, 0.3)``, each serialized as
``json.dumps(report, sort_keys=True, indent=2)``.  ``verify_pair`` is run
against the constructed partner (``p`` itself when there is none) and
against ``two_point_symmetric``.  ``verify_theorem`` and
``verify_neighborhood`` are also pinned on the loaded 10^4-atom
``conftest.wide_member``, whose sums over atoms take the extraction path
that corpus members (at most 201 atoms) skip.  Regenerate the expected file
after a deliberate change to a report with

    PYTHONPATH=src:tests python -c "import json, test_golden_reports as t; \
print(json.dumps(t.digests(), indent=2, sort_keys=True))" \
> tests/expected/report_digests.json

The Monte-Carlo reports are pinned the same way, per corpus member over seeds
0 and 1: ``bench_mom``, and ``lr_test_error`` against the member's partner,
against the member itself (every trial a tie, so the coin pins the stream
state after the draws), and both again at 70,000 draws per trial, past one
draw chunk.  Regenerate with
``t.monte_carlo_digests()`` into ``tests/expected/monte_carlo_digests.json``.

The CLI's distribution files are pinned as written: ``gen --out`` for every
corpus member, ``construct --out`` for every member over the 9-cell grid,
and ``construct --out`` on a seeded 10^4-atom member (a jittered Gaussian
grid with a 0.1% outlier, so n=1000 takes the mixture branch) at
n in {10^3, 10^4, 10^5}, delta=0.01.  Regenerate with
``t.cli_file_digests(Path(tempfile.mkdtemp()))`` into
``tests/expected/cli_file_digests.json``.
"""

import hashlib
import json
from pathlib import Path

from advmean import AtomicDistribution, DegenerateError, construct_q, corpus
from advmean.cli import main
from advmean.distribution import distribution_from_dict
from advmean.harness import (
    TrialConfig,
    bench_mom,
    lr_test_error,
    verify_neighborhood,
    verify_pair,
    verify_theorem,
)

from conftest import wide_member

EXPECTED = Path(__file__).resolve().parent / "expected" / "report_digests.json"
EXPECTED_MC = EXPECTED.with_name("monte_carlo_digests.json")
EXPECTED_CLI = EXPECTED.with_name("cli_file_digests.json")
CELLS = [(n, d) for n in (1000, 10000, 100000) for d in (0.05, 0.01, 0.001)]
CELLS.append((100, 0.3))


def _members() -> dict:
    members = {name: corpus.build(name) for name in corpus.names()}
    members["point_mass"] = AtomicDistribution([0.0], [1.0])
    return members


def _partner(p, n, delta):
    try:
        return construct_q(p, n, delta).q
    except DegenerateError:
        return p


def _digest(verify, p) -> str:
    h = hashlib.sha256()
    for n, delta in CELLS:
        h.update(json.dumps(verify(p, n, delta), sort_keys=True, indent=2).encode())
    return h.hexdigest()


def digests() -> dict:
    coin = corpus.build("two_point_symmetric")
    verifiers = {
        "theorem": verify_theorem,
        "neighborhood": verify_neighborhood,
        "pair_partner": lambda p, n, d: verify_pair(p, _partner(p, n, d), n, d),
        "pair_coin": lambda p, n, d: verify_pair(p, coin, n, d),
    }
    out = {f"{label}/{member}": _digest(verify, p)
           for member, p in _members().items() for label, verify in verifiers.items()}
    wide = distribution_from_dict(wide_member())
    out["theorem/wide"] = _digest(verify_theorem, wide)
    out["neighborhood/wide"] = _digest(verify_neighborhood, wide)
    return out


def test_report_digests():
    assert digests() == json.loads(EXPECTED.read_text())


def monte_carlo_digests() -> dict:
    reports = {
        "bench_mom": lambda p, q, seed: bench_mom(p, TrialConfig(1400, 0.05, 100, seed)),
        "lr_partner": lambda p, q, seed: lr_test_error(p, q, TrialConfig(1000, 0.05, 100, seed)),
        "lr_self": lambda p, q, seed: lr_test_error(p, p, TrialConfig(1000, 0.05, 100, seed)),
        "lr_chunked": lambda p, q, seed: lr_test_error(p, q, TrialConfig(70_000, 0.05, 2, seed)),
        "lr_self_chunked": lambda p, q, seed: lr_test_error(p, p, TrialConfig(70_000, 0.05, 8, seed)),
    }
    out = {}
    for member in corpus.names():
        p = corpus.build(member)
        q = construct_q(p, 1000, 0.05).q
        for label, run in reports.items():
            h = hashlib.sha256()
            for seed in (0, 1):
                h.update(json.dumps(run(p, q, seed), sort_keys=True, indent=2).encode())
            out[f"{label}/{member}"] = h.hexdigest()
    return out


def test_monte_carlo_digests():
    assert monte_carlo_digests() == json.loads(EXPECTED_MC.read_text())


def cli_file_digests(workdir: Path) -> dict:
    def written(argv: list[str], out: Path) -> bytes:
        assert main([*argv, "--out", str(out)]) == 0, argv
        return out.read_bytes()

    def construct(path: Path, cells) -> str:
        h = hashlib.sha256()
        for n, delta in cells:
            argv = ["construct", "--in", str(path), "--n", str(n), "--delta", str(delta)]
            h.update(written(argv, workdir / "q.json"))
        return h.hexdigest()

    out = {}
    for member in corpus.names():
        path = workdir / f"{member}.json"
        out[f"gen/{member}"] = hashlib.sha256(
            written(["gen", "--name", member], path)
        ).hexdigest()
        out[f"construct/{member}"] = construct(path, CELLS[:9])
    wide = workdir / "wide.json"
    wide.write_text(json.dumps(wide_member()), encoding="utf-8")
    out["construct/wide"] = construct(wide, [(n, 0.01) for n in (1000, 10000, 100000)])
    return out


def test_cli_file_digests(tmp_path):
    assert cli_file_digests(tmp_path) == json.loads(EXPECTED_CLI.read_text())
