"""Per-layer tracing of ctdenoise from outside the package.

Wrappers go on the names the package's own modules look up at call time
(``model.py`` binds the tensor ops by name, so an op is replaced in every
``ctdenoise.*`` module that holds it) and on classes, never on instances,
so ``Module.named_parameters`` keeps seeing the layers. Every original is
put back afterwards, and ``Patcher.restore`` reports any that did not
come back.

An op's backward time is measured by wrapping the closure the op records
on its output. The wrapper remembers the op and the model stage that was
running when the op ran forward, and charges the backward time to both.
Calls made inside an *opaque* function (``training.validate`` and
``training.save_checkpoint``) count only towards that function, so on
``train64`` the stage and op times split the optimizer step alone.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# ops that record graph nodes; ``linear`` is matmul plus add and is seen
# through them
LEAF_OPS = ("add", "sub", "neg", "mul", "matmul", "reshape", "transpose", "tsum",
            "tmean", "concat", "leaky_relu", "softmax", "conv2d", "pixel_shuffle",
            "pixel_unshuffle")
REPORTED_OPS = ("conv2d", "transpose", "matmul", "softmax", "pixel_shuffle",
                "pixel_unshuffle", "add", "leaky_relu")
STAGES = ("content", "texture", "high_band", "encoders", "decoders", "reconstruction")
TIMED = ("optim.adam_step", "freq.decompose", "training.load_checkpoint",
         "metrics.rmse", "metrics.ssim", "metrics.vif", "ctsim.make_phantom",
         "ctsim.forward_project", "ctsim.insert_poisson_noise", "ctsim.fbp",
         "ctsim.save_dataset", "ctsim.load_dataset", "tctio.write_tensor",
         "tctio.read_tensor", "tctio.tensor_from_bytes")
OPAQUE = ("training.validate", "training.save_checkpoint")
# counts that must come out the same in every traced pass
EXACT = ("tensor.conv2d.flop", "tensor.conv2d.im2col_bytes", "tensor.graph_nodes",
         "ctsim.forward_project.samples", "training.save_checkpoint.bytes")


def per_layer_names():
    """Every per-layer metric, in report order, with its unit."""
    names = [("tensor.conv2d.gflop", "GFLOP"), ("tensor.conv2d.im2col_mib", "MiB")]
    for op in REPORTED_OPS:
        names += [(f"tensor.{op}.fwd_ms", "ms"), (f"tensor.{op}.bwd_ms", "ms"),
                  (f"tensor.{op}.calls", "count")]
    names += [("tensor.backward.self_ms", "ms"), ("tensor.graph_nodes", "count")]
    for stage in STAGES + ("forward",):
        names += [(f"model.{stage}.fwd_ms", "ms"), (f"model.{stage}.bwd_ms", "ms")]
    names += [(f"{fn}.ms", "ms") for fn in TIMED + OPAQUE]
    names += [("ctsim.forward_project.samples", "count"),
              ("training.save_checkpoint.bytes", "B"),
              ("training.loop_overhead_ms", "ms"),
              ("bench.op_ms", "ms"), ("bench.untraced_op_ms", "ms"),
              ("bench.trace_overhead_ms", "ms")]
    return names


def package_module(short):
    return sys.modules[f"ctdenoise.{short}"]


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._undo = []
        self.leftovers = []

    def patch_function(self, module, name, make):
        """Swap ``module.name`` for ``make(original)`` in every ctdenoise
        module that binds the same function object."""
        orig = getattr(module, name)
        wrapper = make(orig)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "ctdenoise" and mod.__dict__.get(name) is orig:
                self._undo.append((mod, name, orig))
                setattr(mod, name, wrapper)

    def patch_method(self, cls, name, make):
        orig = cls.__dict__[name]
        self._undo.append((cls, name, orig))
        setattr(cls, name, make(orig))

    def restore(self):
        done = self._undo[::-1]
        self._undo = []
        for owner, name, orig in done:
            setattr(owner, name, orig)
        self.leftovers += [f"{getattr(o, '__name__', o)}.{n}" for o, n, orig in done
                           if o.__dict__.get(n) is not orig]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _conv_macs(args, kwargs):
    x, weight = args[0], args[1]
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    B, C, H, W = x.shape
    cout, _, k, _ = weight.shape
    ho, wo = -(-H // stride), -(-W // stride)
    return B * ho * wo * cout * C * k * k, B * ho * wo * C * k * k * x.data.itemsize


def _projector_samples(args, kwargs):
    """Rays times half-pixel steps along the image diagonal, the work of
    the ray-marching projector."""
    img, geom = args[0], args[1]
    size, ps = img.grid.shape[0], img.pixel_spacing_mm
    half, step = 0.5 * np.sqrt(2.0) * size * ps, 0.5 * ps
    return geom.n_views * geom.n_detectors * len(np.arange(-half, half + step, step))


def _checkpoint_bytes(args, kwargs):
    return os.path.getsize(args[1])


COUNTED = {"ctsim.forward_project": ("ctsim.forward_project.samples", _projector_samples),
           "training.save_checkpoint": ("training.save_checkpoint.bytes", _checkpoint_bytes)}


class Tracer:
    """Times every layer of ctdenoise while installed (``with tracer:``),
    keeping set-up and run totals apart."""

    def __init__(self):
        self.phases = {"setup": defaultdict(float), "run": defaultdict(float)}
        self.totals = self.phases["run"]
        self.opaque = 0
        self.stage = None
        self.in_forward = False
        self.texture_ids = frozenset()
        self.closure_ms = 0.0
        self.patcher = Patcher()

    # -- installation --------------------------------------------------

    def __enter__(self):
        p = self.patcher
        tensor, model = package_module("tensor"), package_module("model")
        for op in LEAF_OPS:
            p.patch_function(tensor, op, lambda orig, op=op: self._op(op, orig))
        for key in TIMED + OPAQUE:
            mod, fn = key.split(".")
            p.patch_function(package_module(mod), fn, lambda orig, key=key: self._timed(
                key, orig, key in OPAQUE))
        p.patch_method(tensor.Tensor, "backward", self._backward)
        p.patch_method(model.TransCT, "__call__", self._forward)
        for cls, name, stage in ((model.TransCT, "_content_column", "content"),
                                 (model.ConvAct, "__call__", "texture"),
                                 (model.TransCT, "_hf_features", "high_band"),
                                 (model.EncoderLayer, "__call__", "encoders"),
                                 (model.DecoderLayer, "__call__", "decoders"),
                                 (model.TransCT, "_reconstruct", "reconstruction")):
            p.patch_method(cls, name, lambda orig, stage=stage: self._stage(stage, orig))
        return self

    def __exit__(self, *exc):
        self.patcher.restore()

    # -- wrappers --------------------------------------------------------

    def _op(self, name, orig):
        def op(*args, **kwargs):
            if self.opaque:
                return orig(*args, **kwargs)
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            self.totals[f"tensor.{name}.fwd_ms"] += (time.perf_counter() - t0) * 1e3
            self.totals[f"tensor.{name}.calls"] += 1
            bwd_flop = 0
            if name == "conv2d":
                macs, cols = _conv_macs(args, kwargs)
                self.totals["tensor.conv2d.flop"] += 2 * macs
                self.totals["tensor.conv2d.im2col_bytes"] += cols
                bwd_flop = 2 * macs * (args[0].requires_grad + args[1].requires_grad)
            if out._backward is not None:
                self.totals["tensor.graph_nodes"] += 1
                keys = [f"tensor.{name}.bwd_ms"]
                if self.stage:
                    keys.append(f"model.{self.stage}.bwd_ms")
                if self.in_forward:
                    keys.append("model.forward.bwd_ms")
                out._backward = self._closure(out._backward, keys, bwd_flop)
            return out
        return op

    def _closure(self, fn, keys, flop):
        def backward(g):
            t0 = time.perf_counter()
            grads = fn(g)
            ms = (time.perf_counter() - t0) * 1e3
            self.closure_ms += ms
            for key in keys:
                self.totals[key] += ms
            self.totals["tensor.conv2d.flop"] += flop
            return grads
        return backward

    def _backward(self, orig):
        def backward(tensor):
            if self.opaque:
                return orig(tensor)
            before = self.closure_ms
            t0 = time.perf_counter()
            orig(tensor)
            ms = (time.perf_counter() - t0) * 1e3
            self.totals["tensor.backward.self_ms"] += ms - (self.closure_ms - before)
        return backward

    def _timed(self, key, orig, opaque):
        count = COUNTED.get(key)

        def timed(*args, **kwargs):
            if self.opaque:
                return orig(*args, **kwargs)
            self.opaque += opaque
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                self.totals[f"{key}.ms"] += (time.perf_counter() - t0) * 1e3
                self.opaque -= opaque
            if count:
                self.totals[count[0]] += count[1](args, kwargs)
            return out
        return timed

    def _forward(self, orig):
        def forward(model, *args, **kwargs):
            if self.opaque:
                return orig(model, *args, **kwargs)
            self.texture_ids = frozenset(
                id(getattr(model, n)) for n in ("tex1", "tex2", "tex3") if hasattr(model, n))
            self.in_forward = True
            t0 = time.perf_counter()
            try:
                return orig(model, *args, **kwargs)
            finally:
                self.totals["model.forward.fwd_ms"] += (time.perf_counter() - t0) * 1e3
                self.in_forward = False
        return forward

    def _stage(self, stage, orig):
        # ConvAct also builds the content column and the high-band path;
        # only the texture column's instances open the texture stage
        def call(module, *args, **kwargs):
            if self.opaque or self.stage or (
                    stage == "texture" and id(module) not in self.texture_ids):
                return orig(module, *args, **kwargs)
            self.stage = stage
            t0 = time.perf_counter()
            try:
                return orig(module, *args, **kwargs)
            finally:
                self.totals[f"model.{stage}.fwd_ms"] += (time.perf_counter() - t0) * 1e3
                self.stage = None
        return call

    # -- results ---------------------------------------------------------

    def begin(self, phase):
        """Count what follows towards ``"setup"`` or ``"run"``."""
        self.totals = self.phases[phase]

    def exact_counts(self):
        return {k: self.phases["setup"][k] + self.phases["run"][k] for k in EXACT}

    def report(self, n_setups, n_ops):
        """Per-layer values: set-up totals per set-up plus run totals per
        operation."""
        setup, run = self.phases["setup"], self.phases["run"]

        def value(key):
            return setup.get(key, 0.0) / n_setups + run.get(key, 0.0) / n_ops

        out = {name: value(name) for name, _ in per_layer_names()}
        out["tensor.conv2d.gflop"] = value("tensor.conv2d.flop") / 1e9
        out["tensor.conv2d.im2col_mib"] = value("tensor.conv2d.im2col_bytes") / 2**20
        return out
