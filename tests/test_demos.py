"""Every demo runs to completion; the paving demo writes the committed mesh."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, check=True, capture_output=True,
        timeout=120,
    )
    if demo.stem == "paving_and_mesh":
        written = (tmp_path / "rhombic_dodecahedron.off").read_bytes()
        assert written == (ROOT / "demos" / "rhombic_dodecahedron.off").read_bytes()
