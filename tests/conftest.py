"""Shared test fixtures.

Every test gets a throwaway run ledger: the scenario-routed CLI
commands (``repro run`` and ``repro sweep run``) record provenance into
``$REPRO_LEDGER``, and without this fixture they would write
``.repro/runs`` into the working tree.
"""

import pytest


@pytest.fixture(autouse=True)
def _hermetic_run_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "run-ledger"))
