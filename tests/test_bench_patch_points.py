"""The model stages the benchmark times.

``perfbench/tracer.py`` wraps model methods through ``cls.__dict__[name]``
to time the six stages of a forward pass, and puts every original back
afterwards. A refactor that renames or moves one of those methods fails
here, not only in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from ctdenoise.model import ModelConfig, build_model
from ctdenoise.tensor import Tensor, tsum

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import STAGES, Tracer  # noqa: E402

STAGES_OF = {
    "full": STAGES,
    "no_transformer": ("content", "texture", "high_band", "reconstruction"),
    "no_dual_path": ("content", "encoders", "reconstruction"),
}


@pytest.mark.parametrize("variant", sorted(STAGES_OF))
def test_every_stage_of_the_variant_is_timed(variant):
    model = build_model(ModelConfig(width=0.25, variant=variant, seed=0))
    rng = np.random.default_rng(0)
    low = Tensor(rng.normal(size=(1, 1, 32, 32)).astype(np.float32))
    high = Tensor(rng.normal(size=(1, 1, 32, 32)).astype(np.float32))
    with Tracer() as tracer:
        tsum(model(low, high)).backward()
    timed = {s for s in STAGES if tracer.totals[f"model.{s}.fwd_ms"] > 0}
    assert timed == set(STAGES_OF[variant])
    assert tracer.totals["model.forward.fwd_ms"] > 0
    assert tracer.patcher.leftovers == []
