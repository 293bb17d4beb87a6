"""The library verifiers' reports are pinned byte for byte.

For each verifier and input distribution, the digest is the SHA-256 of the
reports over the 9-cell grid plus ``(100, 0.3)``, each serialized as
``json.dumps(report, sort_keys=True, indent=2)``.  ``verify_pair`` is run
against the constructed partner (``p`` itself when there is none) and
against ``two_point_symmetric``.  Regenerate the expected file after a
deliberate change to a report with

    PYTHONPATH=src:tests python -c "import json, test_golden_reports as t; \
print(json.dumps(t.digests(), indent=2, sort_keys=True))" \
> tests/expected/report_digests.json
"""

import hashlib
import json
from pathlib import Path

from advmean import AtomicDistribution, DegenerateError, construct_q, corpus
from advmean.harness import verify_neighborhood, verify_pair, verify_theorem

EXPECTED = Path(__file__).resolve().parent / "expected" / "report_digests.json"
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


def digests() -> dict:
    coin = corpus.build("two_point_symmetric")
    verifiers = {
        "theorem": verify_theorem,
        "neighborhood": verify_neighborhood,
        "pair_partner": lambda p, n, d: verify_pair(p, _partner(p, n, d), n, d),
        "pair_coin": lambda p, n, d: verify_pair(p, coin, n, d),
    }
    out = {}
    for member, p in _members().items():
        for label, verify in verifiers.items():
            h = hashlib.sha256()
            for n, delta in CELLS:
                report = verify(p, n, delta)
                h.update(json.dumps(report, sort_keys=True, indent=2).encode())
            out[f"{label}/{member}"] = h.hexdigest()
    return out


def test_report_digests():
    assert digests() == json.loads(EXPECTED.read_text())
