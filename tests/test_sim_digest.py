"""The digest tool on its 64x64 and smaller cases."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import ctdenoise

_root = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("sim_digest", _root / "tools" / "sim_digest.py")
sim_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sim_digest)


def test_repeatable_and_seeded():
    lines = sim_digest.digests(ctdenoise, seed=0, max_size=64)
    assert [line.split()[0] for line in lines] == [
        "dataset64_sp1.0_s0", "dataset64_sp1.0_s1", "dataset64_sp0.7_s0",
        "sino64_sp1.0_s3", "sino33_sp1.3_s3", "denoise64_s0",
        "denoise64_no_transformer_s0", "denoise64_no_dual_path_s0", "train64_s1",
        "train32x16_s1"]
    # a fresh process importing the package from a checkout prints the same lines
    run = subprocess.run([sys.executable, str(_root / "tools" / "sim_digest.py"), str(_root),
                          "--max-size", "64"], capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == lines
    # each case under another seed; seed 0's "s1" dataset is seed 1's "s0"
    other = sim_digest.digests(ctdenoise, seed=1, max_size=64)
    assert all(a.split()[1] != b.split()[1] for a, b in zip(lines, other))
    assert other[0].split()[1] == lines[1].split()[1]
