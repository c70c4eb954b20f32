"""colordesc: conditional language models of color descriptions.

Train sequence, atomic, and histogram models that map an HSV color to a
distribution over token-sequence descriptions; score, sample, search,
evaluate (per-description perplexity, AIC, recall@1, paired permutation
tests), and visualize description denotations over color space.
"""

__version__ = "0.1.0"

from .colors import hsl_to_hsv, hsl_to_hsv_array
from .corpus import (
    Dataset,
    Description,
    EncodedDataset,
    Vocabulary,
    encode_dataset,
    load_corpus,
    load_manifest,
    tokenize,
)
from .errors import (
    CheckpointError,
    ColordescError,
    ConfigError,
    CorpusError,
    EvaluationError,
    TrainingDivergence,
)
from .evaluation import (
    EvalReport,
    aic,
    evaluate,
    per_item_log2,
    permutation_test,
    perplexity_from_log2,
)
from .features import (
    BUCKET_GRIDS,
    FOURIER_DIM,
    SCHEMES,
    feature_dim,
)
from .models import (
    AtomicModel,
    HistogramModel,
    SequenceDecoderModel,
    load_checkpoint,
    save_checkpoint,
    train_model,
)
from .nn import TrainingConfig
from .viz import (
    CrossSection,
    GridSpec,
    ProbField,
    cross_sections,
    hue_profile,
    periodic_local_maxima,
    probability_field,
    render,
)

__all__ = [
    "AtomicModel",
    "BUCKET_GRIDS",
    "CheckpointError",
    "ColordescError",
    "ConfigError",
    "CorpusError",
    "CrossSection",
    "Dataset",
    "Description",
    "EncodedDataset",
    "EvalReport",
    "EvaluationError",
    "FOURIER_DIM",
    "GridSpec",
    "HistogramModel",
    "ProbField",
    "SCHEMES",
    "SequenceDecoderModel",
    "TrainingConfig",
    "TrainingDivergence",
    "Vocabulary",
    "aic",
    "cross_sections",
    "encode_dataset",
    "evaluate",
    "feature_dim",
    "hsl_to_hsv",
    "hsl_to_hsv_array",
    "hue_profile",
    "load_checkpoint",
    "load_corpus",
    "load_manifest",
    "per_item_log2",
    "periodic_local_maxima",
    "permutation_test",
    "perplexity_from_log2",
    "probability_field",
    "render",
    "save_checkpoint",
    "tokenize",
    "train_model",
]
