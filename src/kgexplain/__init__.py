"""Path-based explanations for GNN knowledge-graph-completion models."""

from .autodiff import ParamStore, Tape, backward, finite_diff_check, sgd_step
from .explain import (
    EdgeScoreMatrix,
    ExplainConfig,
    Explanation,
    generate_paths,
    init_tes,
    prepare_computation_graph,
    train_explainer,
    train_explainers,
)
from .harness import PlantedConfig, SuiteConfig, generate_planted, run_suite
from .kgraph import (
    ComputationGraph,
    KnowledgeGraph,
    TargetTriple,
    adjacency_power_row,
    extract_computation_graph,
    full_graph,
    k_core_prune,
    load_triples,
)
from .metrics import (
    EvalConfig,
    MetricReport,
    evaluate_batch,
    measure_explanation,
    sparsity,
)
from .model import (
    KgcModel,
    ModelConfig,
    TripleScore,
    encode,
    load_checkpoint,
    rank_target,
    save_checkpoint,
    score,
    score_target_masked,
    train_kgc,
)

__version__ = "0.1.0"
