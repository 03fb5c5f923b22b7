"""Occupation models. Each maps (career history, transition index t) to a
vector over the taxonomy in entry order through ``predict(history, t)``.
Proper models return a probability distribution; the as-written empirical
baseline returns unnormalized values, which perplexity consumes as-is.
"""

from .adapter import GenerationConfig, LmOccupationAdapter
from .career import CareerConfig, CareerModel, paper_preset
from .checkpoint import CheckpointError, config_hash, load_checkpoint, save_checkpoint
from .empirical import EmpiricalModel
from .mnl import (
    EmbeddingFeaturizer,
    MnlFitConfig,
    MnlModel,
    PrevCovariatesFeaturizer,
    PrevOccupationFeaturizer,
)
from .token_lm import (
    ContextOverflowError,
    TokenLM,
    TokenLmConfig,
    collate_token_batch,
    load_token_lm,
    save_token_lm,
)

__all__ = [
    "CareerConfig",
    "CareerModel",
    "CheckpointError",
    "ContextOverflowError",
    "EmbeddingFeaturizer",
    "EmpiricalModel",
    "GenerationConfig",
    "LmOccupationAdapter",
    "MnlFitConfig",
    "MnlModel",
    "PrevCovariatesFeaturizer",
    "PrevOccupationFeaturizer",
    "TokenLM",
    "TokenLmConfig",
    "collate_token_batch",
    "config_hash",
    "load_checkpoint",
    "load_token_lm",
    "paper_preset",
    "save_checkpoint",
    "save_token_lm",
]
