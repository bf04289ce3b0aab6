"""The package root: the names of the end-to-end pipeline and nothing else."""

import types

import ctdenoise as cd
from ctdenoise import ctsim, metrics, model, training

ROOT_NAMES = {
    ctsim: ("make_dataset", "DoseConfig", "default_geometry", "insert_poisson_noise",
            "CtImage", "HU"),
    model: ("build_model", "ModelConfig", "count_parameters"),
    training: ("TrainConfig", "train", "denoise_image"),
    metrics: ("rmse", "ssim", "vif"),
}


def test_root_names_are_exactly_the_pipeline():
    public = {name for name, value in vars(cd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for names in ROOT_NAMES.values() for name in names}


def test_root_names_are_their_modules_objects():
    for module, names in ROOT_NAMES.items():
        for name in names:
            assert getattr(cd, name) is getattr(module, name), f"{module.__name__}.{name}"
