"""The three workloads. Each builds its inputs from the seed, reaches a
ready state in ``setup``, and runs one closed-loop call at a time through
the public API of ctdenoise. ``check`` runs the correctness gates outside
any timed or traced region and returns the number of failed operations.

Module functions are looked up on their modules at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from tracer import Patcher


@dataclass
class Call:
    latencies: list   # seconds per operation
    wall: float       # seconds of the whole call
    items: int        # what item_ms_p50 divides by: samples, requests or pairs
    fingerprint: str  # digest of the outputs, compared bitwise across passes
    outputs: dict = field(default_factory=dict)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _mib(nbytes):
    return nbytes / 2**20


class Workload:
    """Defaults for the workloads below."""

    model_config = None  # the ModelConfig a workload builds, if any

    def extra_layers(self, calls, totals):
        """Per-layer metrics only this workload can derive."""
        return {}


class Train64(Workload):
    """``training.train`` on the tier-1 overfit shape plus validation."""

    setup_repeats = 3
    trace_calls = 1
    epochs = 20
    n_train, n_val, size, batch = 8, 1, 64, 8
    ops_per_call = epochs  # the 8 training pairs make one batch: one step per epoch

    def __init__(self, cd, seed, work):
        self.cd, self.seed, self.work = cd, seed, work
        self.model_config = cd.ModelConfig(width=0.25, seed=seed)
        self.train_config = cd.TrainConfig(epochs=self.epochs, batch_size=self.batch,
                                           lr_schedule=((0, 1e-3),), seed=seed)
        self._calls = 0

    def setup(self):
        dose = self.cd.DoseConfig(i0=2e4, dose_fraction=0.25)
        return self.cd.ctsim.make_dataset(self.n_train + self.n_val, self.size, dose,
                                          seed=self.seed)

    def input_key(self, k):
        return 0

    def _probe_steps(self, patcher, on_start, on_end):
        """Calls on_start at every model call and on_end after every
        ``adam_step``: the last model call before an update is the
        training forward, since validation runs after the update."""
        def forward(orig):
            def call(model, *args, **kwargs):
                on_start()
                return orig(model, *args, **kwargs)
            return call

        def adam(orig):
            def step(*args, **kwargs):
                out = orig(*args, **kwargs)
                on_end()
                return out
            return step

        patcher.patch_method(self.cd.model.TransCT, "__call__", forward)
        patcher.patch_function(self.cd.training, "adam_step", adam)

    def call(self, pairs, k):
        self._calls += 1
        out_dir = self.work / f"train{self._calls}"
        model = self.cd.build_model(self.model_config)
        steps, start = [], [0.0]

        def on_start():
            start[0] = time.perf_counter()

        def on_end():
            steps.append(time.perf_counter() - start[0])

        with Patcher() as p:
            self._probe_steps(p, on_start, on_end)
            t0 = time.perf_counter()
            res = self.cd.training.train(model, pairs[:self.n_train], pairs[self.n_train:],
                                         self.train_config, out_dir)
            wall = time.perf_counter() - t0
        return Call(steps, wall, self.n_train * self.epochs, res.final_train_mse.hex(),
                    {"model": model, "res": res, "dir": out_dir, "val": pairs[self.n_train]})

    def check(self, c):
        o = self.cd
        losses = [row["train_mse"] for row in c.outputs["res"].history]
        ok = (len(c.latencies) == self.ops_per_call and np.isfinite(losses).all()
              and losses[-1] < losses[0])
        loaded, _ = o.training.load_checkpoint(c.outputs["dir"] / "checkpoint.tck")
        ld = c.outputs["val"].ld
        ok = ok and np.array_equal(o.training.denoise_image(loaded, ld).grid,
                                   o.training.denoise_image(c.outputs["model"], ld).grid)
        shutil.rmtree(c.outputs["dir"], ignore_errors=True)
        return 0 if ok else self.ops_per_call

    def peak_mib(self, pairs):
        """Traced peak of one untimed step, above what was live at its
        start. It is 3.6 MiB higher on seeds whose first step clips the
        gradient norm, since clipping copies every gradient."""
        model = self.cd.build_model(self.model_config)
        cfg = self.cd.TrainConfig(epochs=1, batch_size=self.batch,
                                  lr_schedule=((0, 1e-3),), seed=self.seed)
        base, peak = [], []

        def on_start():
            if not base:
                tracemalloc.reset_peak()
                base.append(tracemalloc.get_traced_memory()[0])

        def on_end():
            if not peak:
                peak.append(tracemalloc.get_traced_memory()[1] - base[0])

        tracemalloc.start()
        try:
            with Patcher() as p:
                self._probe_steps(p, on_start, on_end)
                self.cd.training.train(model, pairs[:self.n_train], pairs[self.n_train:],
                                       cfg, self.work / "peak")
        finally:
            tracemalloc.stop()
        return _mib(peak[0])

    def extra_layers(self, calls, totals):
        """Per-epoch time in ``train`` outside the step, validation and
        the checkpoint write: shuffling, batching, history.csv."""
        epochs = self.epochs * len(calls)
        outside = sum(c.wall - sum(c.latencies) for c in calls) * 1e3
        outside -= totals.get("training.validate.ms", 0.0)
        outside -= totals.get("training.save_checkpoint.ms", 0.0)
        return {"training.loop_overhead_ms": outside / epochs}


class Denoise512(Workload):
    """Denoise and score one 512x512 image per request with a loaded
    width-0.25 checkpoint."""

    setup_repeats = 21
    trace_calls = 4
    ops_per_call = 1
    n_images, size, noise_hu = 4, 512, 20.0

    def __init__(self, cd, seed, work):
        self.cd, self.seed, self.work = cd, seed, work
        self.model_config = cd.ModelConfig(width=0.25, seed=seed)
        self.checkpoint = work / "denoise.tck"
        cd.training.save_checkpoint(cd.build_model(self.model_config), self.checkpoint, 0)
        rng = np.random.default_rng(seed)
        self.images = []
        for i in range(self.n_images):
            clean = cd.ctsim.make_phantom([seed, i], self.size)
            noise = rng.normal(0.0, self.noise_hu, clean.grid.shape).astype(np.float32)
            self.images.append((clean, cd.CtImage(clean.grid + noise, cd.HU)))

    def setup(self):
        model, _ = self.cd.training.load_checkpoint(self.checkpoint)
        return model

    def input_key(self, k):
        return k % self.n_images

    def _request(self, model, k):
        clean, noisy = self.images[self.input_key(k)]
        t0 = time.perf_counter()
        out = self.cd.training.denoise_image(model, noisy).grid
        t1 = time.perf_counter()
        m = self.cd.metrics
        scores = (m.rmse(out, clean.grid), m.ssim(out, clean.grid), m.vif(out, clean.grid))
        return out, scores, t1 - t0, time.perf_counter() - t0

    def call(self, model, k):
        out, scores, latency, wall = self._request(model, k)
        return Call([latency], wall, 1, digest(out), {"out": out, "scores": scores})

    def check(self, c):
        out = c.outputs["out"]
        ok = (out.shape == (self.size, self.size) and np.isfinite(out).all()
              and out.min() >= -1000.0 and np.isfinite(c.outputs["scores"]).all())
        return 0 if ok else 1

    def peak_mib(self, model):
        tracemalloc.start()
        try:
            self._request(model, 0)
            return _mib(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()


class Simulate128(Workload):
    """``make_dataset`` of four 128x128 pairs, then save and load them."""

    setup_repeats = 7
    trace_calls = 1
    n_pairs, size = 4, 128
    ops_per_call = n_pairs

    def __init__(self, cd, seed, work):
        self.cd, self.seed, self.work = cd, seed, work
        self._calls = 0

    def setup(self):
        """A user's ready state: a fresh interpreter has imported the
        package and built the scan geometry and dose."""
        src = os.path.dirname(os.path.dirname(sys.modules["ctdenoise"].__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import ctdenoise as cd; "
                f"cd.default_geometry({self.size}); cd.DoseConfig()")
        subprocess.run([sys.executable, "-c", code, src], check=True, timeout=60)
        return self.cd.DoseConfig()

    def input_key(self, k):
        return k

    def call(self, dose, k):
        ctsim = self.cd.ctsim
        self._calls += 1
        out_dir = self.work / f"sim{self._calls}"
        pair_s, phantoms = [], []

        def probe(orig):
            def simulate_pair(*args, **kwargs):
                t0 = time.perf_counter()
                pair, phantom = orig(*args, **kwargs)
                pair_s.append(time.perf_counter() - t0)
                phantoms.append(phantom)
                return pair, phantom
            return simulate_pair

        seed = self.seed * 1000 + k
        with Patcher() as p:
            p.patch_function(ctsim, "simulate_pair", probe)
            t0 = time.perf_counter()
            pairs = ctsim.make_dataset(self.n_pairs, self.size, dose, seed=seed, workers=1)
            wall = time.perf_counter() - t0
        ctsim.save_dataset(pairs, out_dir, {"n_pairs": self.n_pairs, "size": self.size,
                                            "seed": seed})
        loaded, _ = ctsim.load_dataset(out_dir)
        grids = [g for pair in pairs for g in (pair.ld.grid, pair.nd.grid)]
        return Call(pair_s, wall, self.n_pairs, digest(*grids),
                    {"pairs": pairs, "loaded": loaded, "phantoms": phantoms, "dir": out_dir})

    def check(self, c):
        o = c.outputs
        shutil.rmtree(o["dir"], ignore_errors=True)
        if len(o["loaded"]) != len(o["pairs"]) or len(o["phantoms"]) != len(o["pairs"]):
            return self.n_pairs
        failed = 0
        for pair, back, phantom in zip(o["pairs"], o["loaded"], o["phantoms"]):
            ref = phantom.grid.astype(np.float64)
            err = [np.sqrt(np.mean((img.grid - ref) ** 2)) for img in (pair.nd, pair.ld)]
            ok = (np.isfinite(pair.ld.grid).all() and np.isfinite(pair.nd.grid).all()
                  and err[0] < err[1]
                  and np.array_equal(back.ld.grid, pair.ld.grid)
                  and np.array_equal(back.nd.grid, pair.nd.grid))
            failed += not ok
        return failed

    def peak_mib(self, dose):
        tracemalloc.start()
        try:
            self.cd.ctsim.make_dataset(1, self.size, dose, seed=self.seed * 1000 + 999)
            return _mib(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()


WORKLOADS = {"train64": Train64, "denoise512": Denoise512, "simulate128": Simulate128}
