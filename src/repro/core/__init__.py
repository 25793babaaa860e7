"""PStorM core: the paper's contribution.

Feature vectors mixing static (Table 4.3) and dynamic (Table 4.1)
features, similarity measures (§4.2), the multi-stage matcher with
composite profiles (§4.3), the HBase-backed profile store (Chapter 5),
the GBRT alternative matcher (§4.4 / Appendix A), information-gain
feature-selection baselines (§6.1.1), and the PStorM daemon (Chapter 3).
"""

from .extensions import augment_with_params
from .feature_selection import (
    NUMERIC_FEATURE_COLUMNS,
    NearestNeighborMatcher,
    information_gain,
    profile_numeric_vector,
    rank_features,
)
from .features import JobFeatures, extract_job_features, observe_record_streams
from .gbrt import GbrtModel, GbrtParams, fit_gbrt
from .gbrt_matcher import GbrtMatcher, build_training_set, pair_distances
from .maintenance import FifoEviction, LruEviction, MaintainedStore
from .matcher import (
    MatchOutcome,
    ParamAwareMatcher,
    ProfileMatcher,
    SideMatch,
    StaticsFirstMatcher,
)
from .pstorm import PStorM, SubmissionResult
from .resilient import ResilientProfileStore
from .similarity import (
    DEFAULT_JACCARD_THRESHOLD,
    MinMaxNormalizer,
    default_euclidean_threshold,
    euclidean_distance,
    jaccard_index,
)
from .store import ProfileStore
from .store_models import OpenTsdbStore, TablePerTypeStore
from .transfer import CalibrationRatios, calibration_ratios, transfer_profile

__all__ = [
    "augment_with_params",
    "NUMERIC_FEATURE_COLUMNS",
    "NearestNeighborMatcher",
    "information_gain",
    "profile_numeric_vector",
    "rank_features",
    "JobFeatures",
    "extract_job_features",
    "observe_record_streams",
    "GbrtModel",
    "GbrtParams",
    "fit_gbrt",
    "GbrtMatcher",
    "build_training_set",
    "pair_distances",
    "FifoEviction",
    "LruEviction",
    "MaintainedStore",
    "MatchOutcome",
    "ProfileMatcher",
    "SideMatch",
    "StaticsFirstMatcher",
    "ParamAwareMatcher",
    "PStorM",
    "SubmissionResult",
    "ResilientProfileStore",
    "DEFAULT_JACCARD_THRESHOLD",
    "MinMaxNormalizer",
    "default_euclidean_threshold",
    "euclidean_distance",
    "jaccard_index",
    "ProfileStore",
    "OpenTsdbStore",
    "TablePerTypeStore",
    "CalibrationRatios",
    "calibration_ratios",
    "transfer_profile",
]
