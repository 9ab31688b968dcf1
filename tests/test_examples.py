"""Every script under ``examples/`` runs to completion.

Each example is imported from its file, its module-level horizon
(``HOUR`` and, where present, ``SIM_HOURS``) is shrunk so the run takes
seconds, and its ``main()`` is called.  The horizon stays above the
bigtable example's 600 s warm-up, so every example still measures a
post-warm-up window.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Simulated seconds standing in for one hour.
SHORT_HOUR = 900


def load_example(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.stem
)
def test_example_runs(path, monkeypatch, capsys):
    module = load_example(path)
    monkeypatch.setattr(module, "HOUR", SHORT_HOUR)
    if hasattr(module, "SIM_HOURS"):
        monkeypatch.setattr(module, "SIM_HOURS", 1)
    module.main()
    assert capsys.readouterr().out.strip()
