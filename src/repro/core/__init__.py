"""The paper's contribution: the LF-Backscatter reader-side decoder.

Pipeline stages (Section 3), each in its own module:

1. :mod:`edges` — reliable edge detection on the IQ differential (§3.1)
2. :mod:`folding` — eye-pattern stream separation (§3.2)
3. :mod:`streams` — drift-tracking refinement of stream timing
4. :mod:`clustering` — k-means with cluster-count model selection
5. :mod:`collision` — 3^k-cluster collision detection (§3.3)
6. :mod:`separation` — parallelogram separation of 2-way collisions (§3.4)
7. :mod:`viterbi` — 4-state edge-sequence error correction (§3.5)
8. :mod:`anchor` — anchor-bit cluster disambiguation (§3.4, Table 1)
9. :mod:`stages` — each pipeline step as a composable
   :class:`~repro.core.stages.context.Stage` over a shared
   :class:`~repro.core.stages.context.DecodeContext`
10. :mod:`pipeline` — :class:`LFDecoder` composing the stage graph

:mod:`fidelity` threads a confidence-gated escalation policy through
stages 4-8: each hot computation starts cheap and escalates to full
fidelity only when its confidence gate fails.
"""

from .edges import EdgeDetector, EdgeDetectorConfig
from .folding import FoldingConfig, find_stream_hypotheses
from .streams import StreamTrack, track_stream, read_grid_differentials
from .clustering import KMeansResult, kmeans, select_cluster_count
from .collision import CollisionReport, detect_collision
from .fidelity import FIDELITY_STAT_KEYS, FidelityPolicy, escalation_rate
from .separation import SeparationResult, separate_two_way
from .viterbi import ViterbiDecoder, edge_states_to_bits, bits_to_edge_states
from .anchor import resolve_polarity, assemble_bits
from .stages import (DecodeContext, Stage, StageObserver, StageRunner,
                     StatsAccumulator, default_epoch_stages,
                     default_stream_stages)
from .pipeline import LFDecoder, LFDecoderConfig
from .session import SessionConfig, SessionState, StreamTracker
from .session_decoder import SessionDecoder
from .engine import BatchDecoder, EpochOutcome, TrialSpec

__all__ = [
    "EdgeDetector",
    "EdgeDetectorConfig",
    "FoldingConfig",
    "find_stream_hypotheses",
    "StreamTrack",
    "track_stream",
    "read_grid_differentials",
    "KMeansResult",
    "kmeans",
    "select_cluster_count",
    "CollisionReport",
    "detect_collision",
    "FIDELITY_STAT_KEYS",
    "FidelityPolicy",
    "escalation_rate",
    "SeparationResult",
    "separate_two_way",
    "ViterbiDecoder",
    "edge_states_to_bits",
    "bits_to_edge_states",
    "resolve_polarity",
    "assemble_bits",
    "LFDecoder",
    "LFDecoderConfig",
    "SessionConfig",
    "SessionDecoder",
    "SessionState",
    "StreamTracker",
    "BatchDecoder",
    "EpochOutcome",
    "TrialSpec",
    "DecodeContext",
    "Stage",
    "StageObserver",
    "StageRunner",
    "StatsAccumulator",
    "default_epoch_stages",
    "default_stream_stages",
]
