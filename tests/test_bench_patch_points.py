"""The model stages and module functions the benchmark times.

``perfbench/tracer.py`` wraps model methods through ``cls.__dict__[name]``
to time the six stages of a forward pass, and module functions by name;
``perfbench/workloads.py`` patches a few more functions by name. Every
original is put back afterwards. A refactor that renames or moves one of
those methods or functions fails here, not only in a benchmark run.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from ctdenoise import ctsim
from ctdenoise import model as model_module
from ctdenoise.model import ModelConfig, build_model
from ctdenoise.tensor import Tensor, tsum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from tracer import LEAF_OPS, OPAQUE, STAGES, TIMED, Patcher, Tracer  # noqa: E402

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


def test_traced_conv_flop_count_matches_the_layer_shapes():
    # the tracer reads conv2d's stride from its call arguments; here every
    # Conv2d's own shapes and stride give the count instead, so a call that
    # passes another argument in stride's place fails here
    model = build_model(ModelConfig(width=0.25, seed=0))
    rng = np.random.default_rng(0)
    low = Tensor(rng.normal(size=(2, 1, 64, 64)).astype(np.float32))
    high = Tensor(rng.normal(size=(2, 1, 64, 64)).astype(np.float32))
    convs = []

    def record(orig):
        def call(conv, x, *args, **kwargs):
            B, C, H, W = x.shape
            cout, _, k, _ = conv.weight.shape
            s = conv.stride
            macs = B * -(-H // s) * -(-W // s) * cout * C * k * k
            convs.append((macs, x.requires_grad))
            return orig(conv, x, *args, **kwargs)
        return call

    with Tracer() as tracer, Patcher() as patcher:
        patcher.patch_method(model_module.Conv2d, "__call__", record)
        loss = tsum(model(low, high))
        forward = tracer.totals["tensor.conv2d.flop"]
        loss.backward()
    assert len(convs) == tracer.totals["tensor.conv2d.calls"] > 0
    assert forward == sum(2 * macs for macs, _ in convs)
    # backward: the weight gradient, and the input's where it needs one
    assert tracer.totals["tensor.conv2d.flop"] == forward + sum(
        2 * macs * (1 + needs_grad) for macs, needs_grad in convs)
    assert tracer.patcher.leftovers == patcher.leftovers == []


def _workload_patches():
    """(module, function) of every ``patch_function(<module>, "<name>", ...)``
    call in ``workloads.py``; the module is the last name of the first
    argument, as in ``self.cd.training`` or ``ctsim``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch_function"):
            owner, name = node.args[:2]
            module = owner.attr if isinstance(owner, ast.Attribute) else owner.id
            found.append((module, name.value))
    return found


def test_workload_patches_are_found():
    assert {("training", "adam_step"), ("ctsim", "simulate_pair")} <= set(_workload_patches())


@pytest.mark.parametrize(
    "module,name",
    [("tensor", op) for op in LEAF_OPS]
    + [tuple(key.split(".")) for key in TIMED + OPAQUE]
    + _workload_patches(),
)
def test_every_patched_function_exists(module, name):
    mod = importlib.import_module(f"ctdenoise.{module}")
    assert callable(getattr(mod, name, None)), f"ctdenoise.{module}.{name}"


def test_simulate128_probes_see_every_pair():
    # simulate128 times each pair by patching ctsim.simulate_pair by name,
    # and checks each pair against the phantom that call returns; the
    # tracer times the projector, the noise and the FBP by name
    phantoms = []

    def probe(orig):
        def simulate_pair(*args, **kwargs):
            pair, phantom = orig(*args, **kwargs)
            phantoms.append(phantom)
            return pair, phantom
        return simulate_pair

    with Tracer() as tracer, Patcher() as patcher:
        patcher.patch_function(ctsim, "simulate_pair", probe)
        pairs = ctsim.make_dataset(2, 64, ctsim.DoseConfig(), seed=0, workers=1)
    assert len(pairs) == len(phantoms) == 2
    assert all(ph.grid.shape == (64, 64) and ph.unit == ctsim.HU for ph in phantoms)
    assert tracer.totals["ctsim.forward_project.ms"] > 0
    assert tracer.totals["ctsim.insert_poisson_noise.ms"] > 0
    assert tracer.totals["ctsim.fbp.ms"] > 0
    assert tracer.patcher.leftovers == patcher.leftovers == []
