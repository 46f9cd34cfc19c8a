"""Loss-guided layer-wise quantization of small MLPs.

Layer Hessians weighted by end-loss gradients, a non-uniform codebook
quantizer driven by alternating closed-form solves and coordinate
descent, weighted k-means baselines, and brute-force oracles that keep
all of it honest. See README.md for the tour.
"""

from .calib_model import (
    Dataset,
    LayerCalibration,
    MlpModel,
    calibrate,
    end_loss,
    gen_dataset,
    random_model,
    train,
)
from .errors import GlqError
from .guidedquant import QuantJob, QuantReport, eval_objectives, run_job, sweep
from .hessian import (
    ChannelPartition,
    HessianCache,
    HessianSet,
    fisher_diag,
    guided_hessians,
    plain_hessian,
)
from .linalg import cholesky, least_squares
from .lnq import lnq_quantize
from .scalar_quant import (
    QuantizedLayer,
    kmeans_pp_init,
    lloyd,
    rtn_quantize,
    squeezellm_quantize,
)

__version__ = "0.1.0"
