"""The committed smoke results are what the current code writes.

Each smoke sweep is rerun into a fresh output directory and its CSV is
byte-compared with the one under ``results/``.  The byzantine sweep's
rerun must also re-create its six committed run-store objects: key,
row and provenance byte for byte, apart from the ``wall_seconds``
timing in ``meta``, which is the one field that is measured rather
than computed.

A sweep with ``engine="auto"`` points whose committed entries are
stale on this host (``stale_reason``: ``auto`` would route them to a
different engine here, e.g. with the compiled kernels disabled) is
skipped with the reason, since no code on this host writes them.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.cli import main as repro_main
from repro.runstore.fingerprint import spec_from_key
from repro.runstore.orchestrator import stale_reason

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: (subcommand, CSV name) of every committed smoke sweep.
SMOKE_SWEEPS = (
    ("figure3", "figure3_smoke.csv"),
    ("figure4", "figure4_smoke.csv"),
    ("ablation-d", "ablation_d_smoke.csv"),
    ("phases", "phases_smoke.csv"),
    ("topology", "topology_smoke.csv"),
    ("byzantine", "byzantine_stubborn_smoke.csv"),
    ("four-state-census", "four_state_census_smoke.csv"),
    ("info-propagation", "info_propagation_smoke.csv"),
    ("leader-election", "leader_smoke.csv"),
)


def _committed_objects(sweep: str) -> dict[Path, dict]:
    """Committed store objects written by ``sweep``, by relative path."""
    root = RESULTS / ".runstore"
    objects = {}
    for path in sorted((root / "objects").glob("*/*.json")):
        entry = json.loads(path.read_text())
        if (entry.get("meta") or {}).get("sweep") == sweep:
            objects[path.relative_to(root)] = entry
    return objects


def _skip_if_stale(sweep: str) -> None:
    for path, entry in _committed_objects(sweep).items():
        reason = stale_reason(entry, spec_from_key(entry["key"]))
        if reason is not None:
            pytest.skip(f"{sweep}: committed {path.name[:12]} is stale "
                        f"on this host ({reason})")


@pytest.mark.parametrize("command,csv_name", SMOKE_SWEEPS,
                         ids=[command for command, _ in SMOKE_SWEEPS])
def test_smoke_rerun_matches_committed_csv(tmp_path, capsys, command,
                                           csv_name):
    _skip_if_stale(Path(csv_name).stem)
    status = repro_main([command, "--scale", "smoke",
                         "--output-dir", str(tmp_path)])
    capsys.readouterr()
    assert not status
    assert (tmp_path / csv_name).read_bytes() == \
        (RESULTS / csv_name).read_bytes()


def test_byzantine_rerun_recreates_committed_objects(tmp_path, capsys):
    sweep = "byzantine_stubborn_smoke"
    committed = _committed_objects(sweep)
    assert len(committed) == 6
    _skip_if_stale(sweep)
    assert not repro_main(["byzantine", "--scale", "smoke",
                           "--output-dir", str(tmp_path)])
    capsys.readouterr()
    for relative, entry in committed.items():
        fresh_path = tmp_path / ".runstore" / relative
        assert fresh_path.exists(), relative
        fresh = json.loads(fresh_path.read_text())
        fresh["meta"]["wall_seconds"] = entry["meta"]["wall_seconds"]
        assert json.dumps(fresh, indent=1) == \
            (RESULTS / ".runstore" / relative).read_text(), relative
