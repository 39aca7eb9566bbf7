from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script, tmp_path):
    # The demo runs in another directory, so a relative src path on
    # PYTHONPATH would no longer find the package.
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,  # demos must not depend on the working directory
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_every_export_is_documented():
    """Each public, non-module name of the package root appears as a word in
    README.md, a docs/*.md file or a demo."""
    import socioplan

    documents = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")), *DEMOS]
    text = "\n".join(p.read_text(encoding="utf-8") for p in documents)
    exported = [
        name for name, value in vars(socioplan).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert exported
    assert [name for name in exported if not re.search(rf"\b{name}\b", text)] == []
