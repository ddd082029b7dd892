"""Contrastive sentence embeddings at desk scale.

A small, fully inspectable stack for learning sentence embeddings from
NLI supervision: triple mining from labeled pairs, a tape-based autodiff
core, a toy transformer encoder with selectable pooling, contrastive
pretraining with an optional masked-token auxiliary loss, task
fine-tuning, and embedding-space diagnostics.
"""

from .analysis import (
    AnalysisReport,
    EmbeddingSet,
    accuracy_at_topk,
    alignment,
    export_attention,
    gold_ranks,
    load_embeddings,
    save_embeddings,
    uniformity,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig
from .encoder import (
    EncoderConfig,
    EncoderWeights,
    LayerOutputs,
    PoolingStrategy,
    embed_sentences,
    forward_batch,
    pool,
)
from .errors import (
    ConfigError,
    ConsemError,
    ContractError,
    DataError,
    DegenerateInputError,
    FormatError,
    MetricError,
    ShapeError,
    TrainingDivergedError,
    VocabularyError,
)
from .finetune import (
    FinetuneConfig,
    FinetunedModel,
    TaskKind,
    TaskSpec,
    evaluate_classifier,
    evaluate_mrc,
    finetune_classifier,
    load_task_records,
    mrc_scores,
)
from .metrics import ConfusionMatrix, MetricsReport, accuracy, macro_f1, mrc_accuracy
from .optim import AdamW, TrainingConfig
from .pretrain import (
    LossRecord,
    PretrainConfig,
    contrastive_loss,
    contrastive_scores,
    mask_for_mlm,
    mlm_loss,
    select_fraction,
    train,
)
from .tensor import Tape, Tensor, backward, precision
from .text import (
    ContrastiveTriple,
    DatasetStats,
    NliExample,
    TokenSequence,
    Vocabulary,
    build_vocab,
    encode_pair,
    encode_single,
    leakage_guard,
    prepare_contrastive,
)

__version__ = "0.1.0"
