"""tabrep: customer representations from heterogeneous enterprise tables.

Pipeline: load and profile a customer-indexed table (feature kind and
dynamics recognition), augment quality issues (tokenization, normalization,
imputation), embed four feature branches, refine the dynamic branches with
an adaptive-depth transformer, fuse everything into one vector per
customer, and explain trained models by cell masking.

Importing tabrep before numpy sets `OPENBLAS_NUM_THREADS=1` unless one of
`OMP_NUM_THREADS`, `OPENBLAS_NUM_THREADS` or `MKL_NUM_THREADS` is set: a
second BLAS thread only spins on products this small, and the caller's own
setting wins.
"""

import os as _os
import sys as _sys

# numpy reads the thread count when it first loads BLAS, in the imports below
if "numpy" not in _sys.modules and not {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .table import (BigTable, TableFormat, TableStats, load_table, save_table, order_records,
                    compute_stats)
from .prep import (FeatureKind, FeatureSchema, RecognizerConfig, build_schema,
                   nc_recognize, sd_recognize, dynamics_matrix, tokenize,
                   uniform_normalize, Vocabulary)
from .model import CustomerEncoder, ModelConfig, TrainConfig
from .eval import (MetricSet, SynthConfig, synth_generate, roc_auc, f_score,
                   weighted_accuracy, baseline_linear, BaselineConfig,
                   flatten_features, task_labels)
from .interpret import (InterpretConfig, Target, GenomeReport, genome_report,
                        sensitive_customers, sensitive_features, mask_and_delta,
                        position_target, class_target)
from .errors import TabrepError

__version__ = "0.1.0"

__all__ = [
    "BigTable", "TableFormat", "TableStats", "load_table", "save_table", "order_records",
    "compute_stats",
    "FeatureKind", "FeatureSchema", "RecognizerConfig", "build_schema",
    "nc_recognize", "sd_recognize", "dynamics_matrix", "tokenize",
    "uniform_normalize", "Vocabulary",
    "CustomerEncoder", "ModelConfig", "TrainConfig",
    "MetricSet", "SynthConfig", "synth_generate", "roc_auc", "f_score",
    "weighted_accuracy", "baseline_linear", "BaselineConfig",
    "flatten_features", "task_labels",
    "InterpretConfig", "Target", "GenomeReport", "genome_report",
    "sensitive_customers", "sensitive_features", "mask_and_delta",
    "position_target", "class_target",
    "TabrepError",
    "__version__",
]
