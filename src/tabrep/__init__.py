"""tabrep: customer representations from heterogeneous enterprise tables.

Pipeline: load and profile a customer-indexed table (feature kind and
dynamics recognition), augment quality issues (tokenization, normalization,
imputation), embed four feature branches, refine the dynamic branches with
an adaptive-depth transformer, fuse everything into one vector per
customer, and explain trained models by cell masking.
"""

from .table import (BigTable, Row, TableFormat, TableStats, Number, Token, Date,
                    MISSING, load_table, save_table, order_records, compute_stats)
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
    "BigTable", "Row", "TableFormat", "TableStats", "Number", "Token", "Date",
    "MISSING", "load_table", "save_table", "order_records", "compute_stats",
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
