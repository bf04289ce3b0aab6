"""Low-dose CT denoising with a dual-path transformer, self-contained on
numpy: tensor autodiff core, CT simulation, band splitting, model, training
loop, metrics, and a CLI.

The package root holds the names of the end-to-end pipeline; every other
name lives in its module (``ctdenoise.tensor.conv2d``,
``ctdenoise.training.load_checkpoint``, ...)."""

from .ctsim import HU, CtImage, DoseConfig, default_geometry, insert_poisson_noise, make_dataset
from .model import ModelConfig, build_model, count_parameters
from .training import TrainConfig, denoise_image, train
from .metrics import rmse, ssim, vif

__version__ = "0.1.0"
