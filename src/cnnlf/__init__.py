"""Deterministic QP-conditioned CNN loop filtering.

One residual CNN, conditioned on the quantization parameter through a
constant input plane, restores decoded frames across all QPs.  The
trained model is compressed (BN-scale filter pruning, low-rank
decomposition), quantized to dynamic fixed point, and executed with
integer arithmetic only, so inference is bit-exact across platforms and
thread counts.  A toy blockwise-DCT intra codec generates training data
and RD curves for BD-rate evaluation at desk scale.
"""

from .errors import (CnnlfError, ConfigError, DataError, ModelFormatError,
                     NonFiniteLossError, ShapeError, VerificationError)
from .network import (NetworkConfig, NetworkModel, build_cnnf, denormalize, filter_plane,
                      normalize_inputs)
from .tensor import BNParams, ConvParams
from .trainer import (TrainConfig, loss_eq1, lda_regularizer, quant_aware_finetune, sgd_step,
                      train)
from .compress import decompose_model, fold_batchnorm, prune_by_bn_scale
from .dfp import (DFPModel, FLTable, LayerFL, build_fl_table, dfp_forward, quantize_model,
                  reference_fl_8layer)
from .codec import (RDCurve, RDPoint, PatchSet, bd_rate, encode_intra_plane,
                    make_dataset, make_test_image, psnr)
from .model_io import load_model, model_hash, save_model

__version__ = "0.1.0"
