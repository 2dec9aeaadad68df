"""Start-up budget of a CLI process: no command loads hashlib, so none maps
OpenSSL, and every summary's input digests are still SHA-256 of the bytes
read."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import MODEL_L0, MODEL_LI

ROOT = Path(__file__).resolve().parents[1]
OPENSSL_MODULES = {"hashlib", "_hashlib"}


def python(*args, cwd=None):
    """A fresh interpreter on this checkout's src/; exit 0 is asserted."""
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_leaves_hashlib_out():
    proc = python("-c", "import sys, netosc.cli; "
                        f"print(sorted({OPENSSL_MODULES!r} & set(sys.modules)))")
    assert proc.stdout.strip() == "[]"


def test_critical_eps_imports_no_hashlib(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps({"lap0": MODEL_L0.tolist(),
                                                     "lapI": MODEL_LI.tolist()}))
    proc = python("-X", "importtime", "-m", "netosc.cli", "critical-eps", "--graph",
                  "model.json", "--lo", "0", "--hi", "3", "--tol", "1e-3", cwd=tmp_path)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "netosc.dynamics" in imported     # the log is complete
    assert not imported & OPENSSL_MODULES
    digest = hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
    assert json.loads(proc.stdout)["inputs"] == {"model.json": digest}


def test_walkthrough_input_digests(tmp_path, monkeypatch):
    """Every README walk-through command, on the benchmark's seed-7 inputs,
    reports each input's SHA-256 as hashlib computes it."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    workloads.write_files(tmp_path, gen.generate("cli-readme", 7)["files"])
    monkeypatch.chdir(tmp_path)
    checked = 0
    for key, argv in workloads.CLI_COMMANDS:
        rec = workloads.run_cli_inprocess(argv)
        assert rec["returncode"] == 0, key
        for path, digest in json.loads(rec["stdout"])["inputs"].items():
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest(), (key, path)
            checked += 1
    assert checked == 13    # fuse-trends reads three files; beat-demo none


def test_hashlib_fallback_digest(tmp_path):
    """An interpreter without the built-in SHA-256 digests through hashlib."""
    (tmp_path / "data.txt").write_bytes(b"timestamp\n1\n")
    code = ("import sys; sys.modules.update(_sha2=None, _sha256=None);"   # import fails
            "from netosc.cli import _Files; f = _Files(None); f.read('data.txt');"
            "print(f.inputs['data.txt'], 'hashlib' in sys.modules)")
    digest, loaded = python("-c", code, cwd=tmp_path).stdout.split()
    assert digest == hashlib.sha256(b"timestamp\n1\n").hexdigest()
    assert loaded == "True"
