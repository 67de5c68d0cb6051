"""In-database prediction serving: registry, inference tape, scorers.

The training stack (PRs 1-3) ends with a model dict in memory; this
package is the other half of the MADlib-style in-database analytics shape:

* :class:`ModelRegistry` persists versioned model parameters into real
  heap tables through the catalog (bit-identical round trip);
* :class:`InferencePlan` / :class:`InferenceEngine` lower the hDFG in
  forward-only mode into a batched inference tape with schedule-derived
  cycle counters;
* :class:`ScanScorer` scores whole heap tables via the bulk Strider page
  walk, fanned out across segments with the training cluster's
  partitioner;
* :class:`PredictionServer` scores concurrent point requests in
  micro-batches of whatever queued while it was busy, and reports
  throughput + p50/p99 latency.
"""

from repro.serving.inference import (
    DEFAULT_SCORE_BATCH,
    InferenceEngine,
    InferencePlan,
    InferenceStats,
)
from repro.serving.microbatch import PredictionServer, ServingStats
from repro.serving.registry import MODEL_PARAM_SCHEMA, ModelRegistry, model_table_name
from repro.serving.scorer import (
    SCORING_EXECUTION_STRATEGIES,
    ScanScorer,
    ScoreResult,
    SegmentScoreReport,
)

__all__ = [
    "DEFAULT_SCORE_BATCH",
    "InferenceEngine",
    "InferencePlan",
    "InferenceStats",
    "MODEL_PARAM_SCHEMA",
    "ModelRegistry",
    "PredictionServer",
    "SCORING_EXECUTION_STRATEGIES",
    "ScanScorer",
    "ScoreResult",
    "SegmentScoreReport",
    "ServingStats",
    "model_table_name",
]
