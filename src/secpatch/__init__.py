"""Security patch detection pipeline.

Parses unified diffs, augments them with generated explanations, embeds the
patch and text modalities, fuses them with attention into one vector per
sample, and trains a classifier with a joint cross-entropy and batch
contrastive objective. Everything runs on numpy with deterministic seeds.
"""

from .arrayio import CorruptContainer, TruncatedContainer
from .contrastive import InsufficientClassMembers, Triplet, mine_triplets, sbcl_batch_loss_and_grad
from .dataset import (DatasetSplit, EmptyClass, HashTokenizer, SchemaError, load_dataset,
                      save_dataset, split_dataset, tokenize)
from .diffs import Hunk, LineTag, MalformedDiff, ParsedDiff, parse_unified_diff, serialize_diff
from .embed import BackendMissingEntry, EmbedderBackend, embed_patch, embed_text, save_precomputed
from .experiments import (AblationRow, CrossDatasetResult, cross_dataset_eval,
                          options_for_flags, repeated_runs, run_ablation)
from .explain import (CacheCorrupt, ExplainerConfig, ServiceUnavailable, explain,
                      explanation_prompt, instruction_text, stub_explanation)
from .fusion import (AttentionParams, CrossAttentionParams, FeedForwardParams, PTFormerState,
                     cross_attention, fuse_forward, init_pt_former, named_parameters,
                     pooled_concat, self_attention)
from .metrics import (MetricsReport, PCAResult, SingleClassError, auc_score, compute_metrics,
                      export_pca_csv, pca_project)
from .seeding import derive_seed, substream
from .synthetic import make_synthetic_samples
from .train import (ClassifierParams, DivergenceDetected, InvalidCheckpoint, PipelineBackends,
                    TrainOptions, TrainState, bce_loss, encode_sample, fused_embeddings,
                    hashed_backends, head_probability, init_train_state, load_checkpoint,
                    predict, save_checkpoint, train)
from .types import (EmbeddingMatrix, FusedEmbedding, HyperParams, Label, LengthMismatch,
                    Modality, PatchSample, config_from_dict, default_hyperparams)

__version__ = "0.1.0"
