"""The step-memory tool at a small size."""

import subprocess
import sys
from pathlib import Path

from ctdenoise import ModelConfig, build_model, count_parameters

_root = Path(__file__).resolve().parent.parent


def test_phases_parse_and_graph_is_freed():
    run = subprocess.run([sys.executable, str(_root / "tools" / "step_memory.py"), str(_root),
                          "--width", "0.25", "--size", "32", "--batch", "2", "--seed", "3"],
                         capture_output=True, text=True, check=True)
    rows = [line.split() for line in run.stdout.splitlines()]
    assert [row[0] for row in rows] == ["forward", "backward", "clip", "adam", "step"]
    phases = {name: (float(held), float(peak)) for name, held, peak in rows[:-1]}
    assert all(0 < held <= peak for held, peak in phases.values())
    assert float(rows[-1][2]) == max(peak for _, peak in phases.values())
    # backward leaves the float32 leaf gradients, not the forward pass's graph
    grads = 4 * count_parameters(build_model(ModelConfig(width=0.25))) / 2**20
    assert grads <= phases["backward"][0] < grads + phases["forward"][0] / 2
