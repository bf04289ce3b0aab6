"""Low-dose CT denoising with a dual-path transformer, self-contained on
numpy: tensor autodiff core, CT simulation, band splitting, model, training
loop, metrics, and a CLI."""

from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    conv2d,
    leaky_relu,
    linear,
    matmul,
    mul,
    neg,
    pixel_shuffle,
    pixel_unshuffle,
    reshape,
    softmax,
    sub,
    tmean,
    transpose,
    tsum,
)
from .optim import AdamState, adam_step, xavier_init
from .tctio import TensorFormatError, read_tensor, tensor_from_bytes, tensor_to_bytes, write_tensor
from .freq import FreqPair, decompose, gaussian_blur, gaussian_kernel, recompose
from .ctsim import (
    AIR_HU,
    HU,
    MU_PER_MM,
    MU_WATER_60KEV,
    CtImage,
    DoseConfig,
    ScanGeometry,
    Sinogram,
    TrainingPair,
    UnitError,
    default_geometry,
    fbp,
    forward_project,
    hu_to_mu,
    insert_poisson_noise,
    load_dataset,
    make_dataset,
    make_phantom,
    mu_to_hu,
    save_dataset,
)
from .model import (
    ModelConfig,
    Module,
    TransCT,
    VARIANTS,
    build_model,
    count_parameters,
)
from .training import (
    CheckpointError,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    denoise_image,
    load_checkpoint,
    load_checkpoint_into,
    mse_loss,
    save_checkpoint,
    train,
    validate,
)
from .metrics import MetricReport, evaluate_pairs, rmse, ssim, vif
from .config import ConfigError, RunConfig, load_run_config

__version__ = "0.1.0"
