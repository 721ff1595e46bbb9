"""Similarity-mined contrastive fine-tuning and few-shot multimodal
malware-family classification over precomputed embeddings."""

from .cft import AdapterHead, CftConfig, info_nce, refine, train_adapter
from .data import (
    Corpus,
    DescriptionRecord,
    FormatError,
    SyntheticSpec,
    generate_synthetic,
    load_attributes,
    load_embeddings,
    split_meta,
    write_embeddings,
)
from .distill import KdConfig, kd_loss
from .fusion import FusionModel, TeacherModel, init_fusion, init_teacher, teacher_train
from .meta import Batch, Episode, MamlConfig, build_pool, evaluate_few_shot, inner_adapt, maml_train, meta_step, sample_episode
from .metrics import AblationSettings, embedding_quality, project_2d, run_ablation, run_pipeline
from .mining import (
    MiningConfig,
    NegativeSet,
    PositiveSelection,
    ShortageError,
    build_all_samples,
    build_samples,
    mine_all,
    mine_negatives,
    mine_random,
    sample_table,
    select_positive,
    select_positives,
    similarity_histogram,
)
from .numeric import AdamWState, DenseLayer, ShapeError, adamw_init, adamw_step
from .similarity import ZeroNormWarning, cosine_similarity

__version__ = "0.1.0"
