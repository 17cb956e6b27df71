"""Duration-explicit pose decoding, keyframe compression, and summaries."""

from .emission import (
    ChannelEmissionModel,
    ChannelId,
    FeatureFrame,
    FeatureStream,
    Modality,
    View,
    binarize_stream,
    fit_channel_emissions,
    log_emission_matrix,
)
from .errors import (
    BadArgument,
    ChannelAbsent,
    DurationOutOfRange,
    EmptySequence,
    FormatError,
    LabelMismatch,
    MalformedSegmentation,
    NoFeasiblePath,
    NoTransitionDetected,
    PoseHsmmError,
)
from .inference import (
    DecodeResult,
    HsmmModel,
    check_transition_matrix,
    fit_durations,
    fit_transitions,
    hsmm_joint_log_prob,
    hsmm_viterbi,
    segment_viterbi_on_tables,
)
from .keyframes import (
    Keyframe,
    KeyframeSet,
    keyframes_to_pseudo_pose_stream,
    select_keyframes,
)
from .simulate import (
    GroundTruth,
    ScenarioConfig,
    TransitionInfo,
    build_generating_model,
    preset_config,
    sample_sequence,
    sample_transition_clip,
    transition_protocol,
)
from .states import (
    CANONICAL_POSES,
    INITIAL_POSE_PRIORS,
    MOCK_ICU_POSES,
    DurationModel,
    PoseLabel,
    RotationDirection,
    SceneCondition,
    Segment,
    Segmentation,
    StateId,
    StateSpace,
    build_initial_distribution,
    encode_segments,
)
from .summarize import (
    HistoryRecord,
    TransitionChain,
    TransitionLibrary,
    TransitionRecord,
    build_transition_library,
    classify_transition,
    frame_accuracy,
    history_from_segments,
    score_chains,
    summarize_history,
    window_detection_rate,
)

__version__ = "0.1.0"
