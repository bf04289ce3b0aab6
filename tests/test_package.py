"""The package root: the names of the end-to-end pipeline and nothing else."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

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


def test_no_module_imports_another_modules_private_names():
    # a name another module needs is public; a private one stays in its module
    found = []
    for path in sorted(Path(cd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.level or node.module.startswith("ctdenoise"))):
                continue
            source = "." * node.level + (node.module or "")
            found += [f"{path.name}: from {source} import {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def test_every_record_but_the_optimizer_state_is_frozen():
    # a record is checked once, when it is built; only Adam's running state changes after
    mutable = set()
    for info in pkgutil.iter_modules(cd.__path__):
        module = importlib.import_module(f"ctdenoise.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if (dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                    and not cls.__dataclass_params__.frozen):
                mutable.add(f"{module.__name__}.{name}")
    assert mutable == {"ctdenoise.optim.AdamState"}, mutable


def test_only_tctio_splits_or_formats_key_value_lines():
    # config files, run.cfg and manifests share tctio's one grammar and one writer
    found = []
    for path in sorted(Path(cd.__file__).parent.glob("*.py")):
        if path.name == "tctio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            splits = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("partition", "split") and node.args
                      and isinstance(node.args[0], ast.Constant)
                      and node.args[0].value in ("=", "#"))
            writes = isinstance(node, ast.JoinedStr) and any(
                isinstance(part, ast.Constant) and part.value.strip() == "="
                for part in node.values)
            if splits or writes:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, found
