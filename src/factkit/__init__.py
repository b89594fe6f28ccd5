"""Toolkit for classifying personal facts in dialogue.

Covers the full pipeline: the seven-dimension label taxonomy and raw
annotation canonicalization, exact deduplication, cluster-based diversity
sampling, stratified splitting, a multi-head classifier trained on frozen
text embeddings, macro-F1 evaluation, inter-annotator agreement statistics,
a TF-IDF + logistic-regression baseline, and corpus-level distribution
analysis with a training-data leakage audit.
"""

__version__ = "0.1.0"

from .taxonomy import (
    DIMENSIONS,
    LABEL_SPACE,
    CanonResult,
    Dimension,
    FactRecord,
    LabelSet,
    RawAnnotation,
    canonicalize,
    validate_labelset,
)
from .dataio import (
    SplitAssignment,
    SplitSpec,
    dedup_exact,
    read_facts,
    read_split,
    stratified_split,
    write_facts,
    write_split,
)
from .embeddings import (
    EmbeddingMatrix,
    fetch_embeddings,
    l2_normalize,
    load_embeddings,
    save_embeddings,
)
from .sampling import KMeansModel, cluster_sample, kmeans_fit
from .model import (
    MASK,
    MultiHeadModel,
    TrainConfig,
    TrainResult,
    adamw_step,
    backward,
    canonical_label_space,
    forward,
    inverse_frequency_label_weights,
    load_model,
    loss,
    new_model,
    predict,
    save_model,
    targets_from_facts,
    train,
)
from .metrics import (
    MetricsReport,
    SeedAggregate,
    aggregate_seeds,
    evaluate_labelsets,
    macro_f1,
    pooled_overall_f1,
)
from .agreement import (
    AgreementReport,
    RatingsTable,
    cohen_kappa,
    compute_agreement,
    fleiss_kappa,
    krippendorff_alpha_nominal,
    landis_koch,
    percent_agreement,
)
from .baseline import (
    LinearModel,
    TfidfConfig,
    TfidfVocab,
    baseline_eval,
    logreg_predict,
    logreg_train,
    tfidf_fit,
    tfidf_transform,
)
from .analyze import (
    DistributionReport,
    LeakageAudit,
    aggregate_distribution,
    leakage_audit,
    predict_corpus,
)
