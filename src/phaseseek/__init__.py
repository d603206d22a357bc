"""Retrieval of phase-transition timestamps in temporal feature sequences.

Instead of classifying every clip, a pair of Q-learning agents per phase
walks search windows to the clips where the phase begins and ends; the
per-phase pairs are then merged into one contiguous labeling by Gaussian
composition and scored with frame-based and event-based metrics.
"""

from .compose import PhaseGaussian, gaussian_compose
from .errors import (
    BadMagicError,
    BadVersionError,
    FeatureFileError,
    LabelsFileError,
    NonContiguousPhaseError,
    NonFiniteError,
    PhaseseekError,
    TruncatedError,
)
from .features import (
    FeatureSequence,
    PhaseLabels,
    SynthConfig,
    TransitionSet,
    average_clips,
    labels_to_transitions,
    load_features,
    load_labels,
    save_features,
    save_labels,
    synth_dataset,
    synth_generate,
    transitions_to_labels,
)
from .inference import (
    FixedInit,
    LinearClipClassifier,
    PredictionInit,
    RolloutResult,
    coverage_rate,
    fit_fi,
    rollout,
    rollout_many,
    train_clip_classifier,
)
from .metrics import (
    Event,
    FrameMetrics,
    VideoReport,
    WardTally,
    aggregate_reports,
    evaluate_video,
    event_ratio,
    extract_events,
    frame_metrics,
    ward_categorize,
    ward_event_ratio,
    write_report,
)
from .nets import (
    AdamState,
    QNetwork,
    adam_init,
    adam_step,
    backward,
    clone_params,
    forward,
    huber_loss,
    init_qnetwork,
    load_checkpoint,
    param_list,
    save_checkpoint,
)
from .training import (
    ACTION_LEFT,
    ACTION_RIGHT,
    ReplayMemory,
    SearchPolicy,
    TrainConfig,
    apply_action,
    compute_reward,
    dqn_update,
    select_action,
    train,
)

__version__ = "0.1.0"
