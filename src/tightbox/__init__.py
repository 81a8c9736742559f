"""Tight-box proposal mining on segmentation confidence maps.

Scores object proposals by the confidence inside the box minus the
conditional average of the highest-confidence pixels in the surrounding
ring, generates pseudo segmentation masks from activation and saliency
maps, and evaluates rankings with recall@k, CorLoc and VOC-style AP.
Includes a synthetic-scene generator with a brute-force oracle so the
ranking behavior is testable without any trained model.
"""

__version__ = "0.1.0"

from .confmap import ConfMap, build_integral
from .errors import (BundleValidationError, MalformedFileError, ParseError,
                     TightboxError)
from .evaluation import (ApMode, ApResult, CorLocResult, GroundTruth,
                         GtInstance, RecallCurve, SweepResult, ablation_sweep,
                         corloc, recall_at_k, voc_ap)
from .geometry import Box, RingRegion, enlarge, iou, ring
from .pseudomask import (BACKGROUND, IGNORE, MaskConfig, PseudoMask,
                         generate_mask, mask_stats, normalize_cam)
from .scoring import (CandidatePool, EmptyRingPolicy, ScoredProposal,
                      ScoringConfig, build_pool, score_batch)
from .synth import (ProposalCounts, ProposalFamily, SceneObject, SceneSpec,
                    TrapParams, gen_proposals, gen_scene, make_linked_spec,
                    make_trap_spec, oracle_score)

__all__ = [
    "ApMode", "ApResult", "BACKGROUND", "Box", "BundleValidationError",
    "CandidatePool", "ConfMap", "CorLocResult", "EmptyRingPolicy",
    "GroundTruth", "GtInstance", "IGNORE", "MalformedFileError", "MaskConfig",
    "ParseError", "ProposalCounts", "ProposalFamily", "PseudoMask",
    "RecallCurve", "RingRegion", "SceneObject", "SceneSpec", "ScoredProposal",
    "ScoringConfig", "SweepResult", "TightboxError", "TrapParams",
    "ablation_sweep", "build_integral", "build_pool", "corloc", "enlarge",
    "gen_proposals", "gen_scene", "generate_mask", "iou", "make_linked_spec",
    "make_trap_spec", "mask_stats", "normalize_cam", "oracle_score",
    "recall_at_k", "ring", "score_batch", "voc_ap",
]
