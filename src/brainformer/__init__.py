"""Desk-scale Brainformer: non-uniform transformer blocks built from
attention / dense-FFN / MoE sub-layers, two MoE routing algorithms, and a
budget-constrained evolutionary block search.
"""

from .tensor import Tensor
from .layers import (
    AttentionConfig, FfnConfig, MoeConfig, RoutingDecision,
    attention_forward, ffn_forward, gate_scores, moe_forward,
    route_top2, route_expert_choice, load_balance_aux_loss,
)
from .model import (
    BlockSpec, ModelSpec, ParamCount, LanguageModel, ConfigError,
    scale_model_dim, count_params,
    glam_baseline_block,
)
from .training import (
    TrainConfig, ByteCorpus, Adafactor, TrainState,
    lr_at, train_steps, evaluate_perplexity, measure_step_time,
    save_checkpoint, load_checkpoint,
)
from .search import (
    SearchSpace, Candidate, TrialRecord, EvolutionState,
    sample_candidate, mutate, evolve, finalize_topk,
    SurrogateRunner, ProxyTrainingRunner,
)

__version__ = "0.1.0"
