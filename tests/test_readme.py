"""The README's library quickstart runs as written, and warns of nothing."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
