"""Golden sha256 of the built columns.

The golden report renders rounded numbers, so a last-bit drift in a
period's mean or peak can hide behind its formatting. These hashes pin
the raw bytes of ``dasu.columns.rows`` and ``fcc.columns.rows`` for two
small worlds — a pristine one, and one built through fault injection
plus sanitization — so any change to a draw, its order or the
arithmetic over the draws fails here.

To regenerate after an *intentional* behavior change::

    PYTHONPATH=src python -m pytest tests/datasets/test_build_bytes.py --regen-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.datasets import WorldConfig, build_world
from repro.faults import fault_profile

GOLDEN = Path(__file__).parent.parent / "golden" / "build_bytes.json"

_SMALL = dict(n_dasu_users=120, n_fcc_users=30, days_per_year=1.0)

CONFIGS = {
    "plain": WorldConfig(seed=7, **_SMALL),
    "faults_default_sanitize": WorldConfig(
        seed=7, faults=fault_profile("default"), sanitize=True, **_SMALL
    ),
}


def _digest(config: WorldConfig) -> str:
    world = build_world(config, ground_truth=False)
    return hashlib.sha256(
        world.dasu.columns.rows.tobytes() + world.fcc.columns.rows.tobytes()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_build_bytes_match_golden(name, request):
    digest = _digest(CONFIGS[name])
    if request.config.getoption("--regen-golden"):
        pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        pinned[name] = digest
        GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN}:{name}")
    assert GOLDEN.exists(), (
        "golden digests missing — regenerate with --regen-golden"
    )
    assert digest == json.loads(GOLDEN.read_text())[name]
