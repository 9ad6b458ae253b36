"""Benchmark tooling for scene-graph generation over oriented bounding boxes.

The package covers the full desk-scale pipeline: oriented-box geometry with
exact rotated IoU, a JSON manifest data model with validation, tiling of
large scenes, detection and scene-graph evaluation, ordered-pair proposal
machinery, a frequency prior and a linear relation scorer, a seeded
synthetic dataset generator and exhaustive dataset statistics.
"""

__version__ = "0.1.0"

from .datamodel import (
    Dataset,
    Detection,
    ObjectInstance,
    RelationTriplet,
    SceneAnnotation,
    Violation,
    parse_dataset,
    parse_predictions,
    serialize_dataset,
    size_class,
    validate,
)
from .errors import (
    DataError,
    ManifestError,
    RegistryMismatchError,
    TrainingDivergenceError,
)
from .geometry import (
    AxisBox,
    OrientedBox,
    intersection_area,
    rotated_iou,
    shoelace_area,
)
from .ingest import (
    TileSpec,
    convert_to_hbb,
    crop_scene,
    plan_tiles,
    reassemble,
    rotated_nms,
    tile_dataset,
)
from .metrics import (
    EvalReport,
    MatchConfig,
    PredictedTriplet,
    TripletMatchResult,
    TripletTarget,
    average_precision,
    evaluate_detections,
    evaluate_scene_graphs,
    match_detections,
    match_triplets,
    mean_ap,
    mean_recall_at_k,
    precision,
    recall,
    recall_at_k,
)
from .pairing import (
    label_pairs,
    relation_pairs,
    relpn_loss,
    sample_pairs,
)
from .registry import CategoryRegistry, canonical_registry
from .scorer import (
    FrequencyPrior,
    LinearScorer,
    TrainConfig,
    ce_loss,
    fit_frequency_prior,
    load_prior,
    load_scorer,
    predict_triplets,
    save_prior,
    save_scorer,
    train_linear,
)
from .stats import StatsReport, compute_stats
from .synth import Rule, SynthConfig, default_rules, generate

__all__ = [name for name in dir() if not name.startswith("_")]
