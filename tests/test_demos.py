"""Demos: each runs from a copy and writes the SVG files pinned here."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sympgeo

DEMOS = Path(__file__).resolve().parent.parent / "demos"

#: The SVG files each demo writes next to itself, with their sha256.
DEMO_SVGS = {
    "01_plane_algebra.py": {},
    "02_constructions.py": {
        "tangents.svg": "d020549f7a2236e397f78d12a8065f5cba3516ae10d9804eb305e2846d7bff74",
    },
    "03_slider_crank.py": {
        "crank_curves.svg": "4adc98b51e0249ecc0c9ef98a349d6deed664180963868b301b7167c1c24e2e0",
        "crank_mechanism.svg": "cc79d20c56fb107fb1c24502e1b17aa50e560f58f9d78045c76597899785702a",
    },
    "04_oscillator_energy.py": {
        "phase_portrait.svg": "7a75d4d118dfd7579a2ba22651dd1eaeacdf16396a209d8e3730b84ade41096b",
        "energy_history.svg": "941d681233caee171f36a2d070e7b7b2bf99a850e5be90bdd1bac332a55e923d",
    },
}


@pytest.mark.parametrize("demo", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_writes_its_pinned_svgs(tmp_path, demo):
    # A demo writes next to its own file, so the copy writes into tmp_path;
    # it imports the package this suite imports.  A demo missing from
    # DEMO_SVGS fails here.
    script = tmp_path / demo
    shutil.copyfile(DEMOS / demo, script)
    src = str(Path(sympgeo.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(script)],
                            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    written = {svg.name: hashlib.sha256(svg.read_bytes()).hexdigest()
               for svg in tmp_path.glob("*.svg")}
    assert written == DEMO_SVGS.get(demo)
