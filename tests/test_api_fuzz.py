"""Public entry points return a result inside their documented domain and
raise a ``PoseHsmmError`` outside it.

The library-side twin of ``test_format_fuzz.py``.  Each example picks an
entry point and a set of its parameters; each picked parameter takes one of
0, -1, 2.5, NaN, +inf, -inf, 10**18, True and False (a bool is no integer
and no number, so it lies outside every integer or number domain; a part's
state count, feature
width or table size takes a few counts around its valid one, a fit's list
item a value that is not a segmentation, a preset name or override a
string that names no preset or config field, an override or a library
entry a value of another kind or shape, a pose list one that is not
distinct poses, and a flag one that is no bool), the others keep a valid
value.  When every parameter
lies in the domain the entry point documents, the call must return (or
raise one of the outcomes it documents for valid input, such as a static
clip); otherwise it must raise a ``PoseHsmmError``.  Any other exception
or result fails.  Parameters are only checked and stored, never used to
size an array, so 10**18 allocates nothing; a fit's state count does size
its tables, and at 10**18 they ask for more memory than any machine has,
so that call allocates nothing either.  Every function
``posehsmm`` exports has an entry point or a reason in ``NOT_FUZZED``.
Hypothesis samples the combinations; ``test_each_candidate_alone`` tries
every candidate of every parameter once with the others valid.
"""

import inspect
import math
import re
import types
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import posehsmm

from posehsmm.emission import (
    ChannelEmissionModel,
    ChannelId,
    FeatureStream,
    fit_channel_emissions,
    log_emission_matrix,
)
from posehsmm.errors import BadArgument, NoTransitionDetected, PoseHsmmError
from posehsmm.inference import (
    HsmmModel,
    check_transition_matrix,
    fit_durations,
    fit_transitions,
    hsmm_viterbi,
    segment_viterbi_on_tables,
)
from posehsmm.keyframes import (
    Keyframe,
    KeyframeSet,
    keyframes_to_pseudo_pose_stream,
    select_keyframes,
)
from posehsmm.simulate import (
    DEFAULT_CHANNELS,
    PRESETS,
    ScenarioConfig,
    build_generating_model,
    preset_config,
    sample_sequence,
    sample_transition_clip,
    transition_protocol,
)
from posehsmm.states import (
    CANONICAL_POSES,
    D_MAX_LIMIT,
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
from posehsmm.summarize import (
    TransitionChain,
    TransitionLibrary,
    build_transition_library,
    classify_transition,
    history_from_segments,
    score_chains,
    summarize_history,
)

SCALARS = [0, -1, 2.5, math.nan, math.inf, -math.inf, 10**18, True, False]
PL = PoseLabel
RGB = ChannelId.parse("left:RGB")
SPACE3 = StateSpace.from_poses([PL.SOLDIER_UP, PL.LOG_RIGHT, PL.OTHER], scene_doubling=False)


def is_integer(v):
    return isinstance(v, Integral) and not isinstance(v, bool)


def is_number(v):
    return isinstance(v, Real) and not isinstance(v, bool)


def integer(low):
    return lambda v: is_integer(v) and v >= low


def d_max_ok(v):
    return integer(1)(v) and v <= D_MAX_LIMIT


def finite_at_least_zero(v):
    return is_number(v) and math.isfinite(v) and v >= 0.0


def unit(v):
    return is_number(v) and 0.0 <= v <= 1.0


def element(domain):
    """An array element's domain: the array stores a bool as 0.0 or 1.0."""
    return lambda v: domain(float(v))


def no_repeats(v):
    return len(v) > 0 and len(set(v)) == len(v)


def distinct_poses(v):
    return (isinstance(v, (list, tuple)) and all(isinstance(p, PoseLabel) for p in v)
            and no_repeats(v))


@dataclass
class Param:
    valid: object
    domain: object
    candidates: list = field(default_factory=lambda: SCALARS)


@dataclass
class EntryPoint:
    call: object
    params: dict
    joint: object = lambda p: True
    valid_outcomes: tuple = ()


KEYFRAME_PARAMS = {
    "k_max": Param(5, integer(2)),
    "threshold": Param(0.25, finite_at_least_zero),
    "stage2_threshold": Param(
        None, lambda v: v is None or finite_at_least_zero(v), SCALARS + [None]
    ),
}
HISTORY_PARAMS = {
    "sample_every": Param(2, integer(1)),
    "window": Param(5, integer(1)),
    "consistency": Param(0.5, unit),
}


def history_joint(p):
    return p["window"] >= p["sample_every"]


def size(valid=2):
    """A state count or feature width that must equal ``valid``."""
    return Param(valid, lambda v: v == valid, [1, 2, 3])


def one_q(p):
    """A model's domain: ``pi`` is a distribution over Q states and every
    other part has Q states, whether Q is 2 or another count."""
    q = len(p["pi"])
    sizes = [p[k] for k in ("A", "means", "durations") if k in p]
    return (all(v >= 0.0 for v in p["pi"]) and sum(p["pi"]) == 1.0
            and all(n == q for n in sizes) and p["states"] in (None, q))


#: A model part's state count; ``one_q`` judges the counts together.
COUNT = Param(2, None, [1, 2, 3])
MODEL_PARAMS = {
    "pi": Param([0.25, 0.75], None, [[0.25, 0.75], [1.0, 1.0], [1.5, -0.5],
                                     [math.nan, 1.0], [0.5, 0.5, 0.0], [1.0]]),
    "A": COUNT,
    "means": COUNT,
    "states": Param(2, None, [None, 1, 2, 3]),
}
#: A flag: True and False are its whole domain.
FLAG = Param(True, lambda v: isinstance(v, bool), [True, False, "no", None, 0, 1])
#: A label of a two-state fit.
STATE_INDEX = Param(1, lambda v: is_integer(v) and 0 <= v < 2)
#: The state count of a fit whose labels are 0 and 1: an integer that covers
#: them and sizes tables memory holds (10**18 does not).
N_STATES = Param(2, lambda v: is_integer(v) and 2 <= v <= 1000)


@pytest.fixture(scope="module")
def inputs():
    """A moving transition clip, a library fitted from two clips, and a short
    stream with its generating model."""
    config = ScenarioConfig()
    clips = [
        (sample_transition_clip(a, b, d, config)[0], a, b, d)
        for a, b, d in [(PL.SOLDIER_UP, PL.FETAL_RIGHT, RotationDirection.LEFT),
                        (PL.FETAL_LEFT, PL.LOG_RIGHT, RotationDirection.RIGHT)]
    ]
    library = build_transition_library(clips, threshold=0.25)
    assert library.entries
    scenario = ScenarioConfig(t_target=20, duration_mean=4.0, duration_std=1.0,
                              scene_doubling=False)
    stream, _ = sample_sequence(scenario)
    model, _ = build_generating_model(scenario)
    return {"clips": clips, "library": library, "stream": stream, "model": model}


def _stream_with(v):
    X = np.full((1, 3, 2), 0.5)
    X[0, 1, 0] = v
    return FeatureStream(X, np.ones((1, 3), dtype=bool), (RGB,))


def _means_with(v):
    means = np.full((2, 2), 0.5)
    means[0, 0] = v
    return ChannelEmissionModel(RGB, means)


def _stream(F):
    return FeatureStream(np.full((1, 4, F), 0.5), np.ones((1, 4), dtype=bool), (RGB,))


def _emissions(Q, F=2):
    return {RGB: ChannelEmissionModel(RGB, np.full((Q, F), 0.5))}


def _space(Q):
    if Q is None:
        return None
    return StateSpace.from_poses(CANONICAL_POSES[:Q], scene_doubling=False)


def _hsmm(pi=(0.25, 0.75), A=2, durations=2, means=2, states=None):
    """A model whose parts have the given state counts; A's rows cycle."""
    return HsmmModel(
        pi, (np.ones((A, A)) - np.eye(A)) / max(A - 1, 1),
        DurationModel(np.full(durations, 3.0), np.ones(durations), 6),
        _emissions(means), _space(states),
    )


def _runs(label, T=4):
    """T ticks in one run of state ``label``: a segmentation compares no
    state index of its own when it has one run."""
    return Segmentation((Segment(1, T, label),), T)


#: A list item of a fit: a segmentation of the four ticks of ``_stream``.
ITEM = Param(encode_segments([1, 1, 0, 0]), lambda v: isinstance(v, Segmentation),
             SCALARS + [None, [1, 2], [0, 1, 0, 0], (Segment(1, 4, 0),),
                        Segment(1, 4, 0), _stream(2)])


def _dp(T, A, dur, D, rows, final):
    """The segment DP on zero tables for two states; ``log_pi`` sets Q = 2
    and each count sizes one table against it."""
    return segment_viterbi_on_tables(
        T, np.log([0.5, 0.5]), np.zeros((A, A)), np.zeros((dur, D + 1)),
        np.zeros((rows, 2)), None if final is None else np.zeros(final),
    )


KEY = (PL.SOLDIER_UP, PL.FETAL_RIGHT, RotationDirection.LEFT)


def _chain(L, std, means):
    """A chain whose gap_mean has L positions, gap_std ``std`` and the means
    the shape ``means``."""
    return TransitionChain({RGB: np.full(means, 0.5)}, np.ones(L), np.ones(std), 1)


#: Overrides ``preset_config`` takes: each sets a field to a value of its kind.
GOOD_OVERRIDES = [("seed", 1), ("t_target", 1), ("F", 1), ("scene_switch", True),
                  ("noise", {SceneCondition.BC: 0.1, SceneCondition.DO: 0.2}),
                  ("channels", [RGB]), ("base_scene", SceneCondition.DO)]
#: Overrides that name no field, or give a field a value of another kind.
BAD_OVERRIDES = [("bogus", 1), ("name", 1), ("", 1), ("poses", 5), ("dropout", None),
                 ("noise", "x"), ("duration_mean", "x"), ("noise", {"BC": 0.1}),
                 ("base_scene", "BC"), ("scene_switch", "no"), ("scene_doubling", "x"),
                 ("channels", ["left:RGB"])]


def _pseudo_poses(first, last):
    """The four ticks of ``_stream`` re-ticked at keyframes ``first, last``."""
    frames = (Keyframe(first, RGB, 1.0, 1), Keyframe(last, RGB, 1.0, 1))
    return keyframes_to_pseudo_pose_stream(_stream(2), KeyframeSet(frames, 5, 0.8))


ENTRY_POINTS = {
    "select_keyframes": EntryPoint(
        lambda x, **p: select_keyframes(x["clips"][0][0], **p), KEYFRAME_PARAMS
    ),
    "build_transition_library": EntryPoint(
        lambda x, **p: build_transition_library(x["clips"], **p), KEYFRAME_PARAMS
    ),
    "classify_transition": EntryPoint(
        lambda x, **p: classify_transition(x["clips"][0][0], x["library"], **p),
        {**KEYFRAME_PARAMS, "use_keyframes": FLAG},
        valid_outcomes=(NoTransitionDetected,),
    ),
    "score_chains": EntryPoint(
        lambda x, use_keyframes: score_chains(x["library"], x["clips"][0][0], use_keyframes),
        {"use_keyframes": FLAG},
    ),
    "history_from_segments": EntryPoint(
        lambda x, label, **p: history_from_segments(_runs(label, 12), SPACE3, **p),
        {"label": Param(1, lambda v: is_integer(v) and 0 <= v < 3),
         **HISTORY_PARAMS},
        history_joint,
    ),
    "summarize_history": EntryPoint(
        lambda x, **p: summarize_history(x["stream"], x["model"], **p),
        HISTORY_PARAMS,
        history_joint,
    ),
    "check_transition_matrix": EntryPoint(
        lambda x, p: check_transition_matrix([[0.0, 1.0], [1 - p, p]]),
        {"p": Param(0, lambda v: v == 0)},
    ),
    "HsmmModel": EntryPoint(
        lambda x, **p: _hsmm(**p), {**MODEL_PARAMS, "durations": COUNT}, one_q
    ),
    "hsmm_viterbi": EntryPoint(
        lambda x, F: hsmm_viterbi(_stream(F), _hsmm()), {"F": size()}
    ),
    "log_emission_matrix": EntryPoint(
        lambda x, Q, F: log_emission_matrix(_stream(2), _emissions(Q, F), 2),
        {"Q": size(), "F": size()},
    ),
    "fit_channel_emissions": EntryPoint(
        lambda x, F, item, n_states: fit_channel_emissions(
            [_stream(2), _stream(F)], [_runs(0), item], RGB, n_states
        ),
        {"F": size(), "item": ITEM, "n_states": N_STATES},
    ),
    "fit_channel_emissions labels": EntryPoint(
        lambda x, label: fit_channel_emissions([_stream(2)], [_runs(label)], RGB, 2),
        {"label": STATE_INDEX},
    ),
    "fit_transitions": EntryPoint(
        lambda x, label, item, n_states: fit_transitions([_runs(label), item], n_states),
        {"label": STATE_INDEX, "item": ITEM, "n_states": N_STATES},
    ),
    "fit_durations": EntryPoint(
        lambda x, label, item, n_states: fit_durations([_runs(label), item], n_states, 4),
        {"label": STATE_INDEX, "item": ITEM, "n_states": N_STATES},
    ),
    "segment_viterbi_on_tables": EntryPoint(
        lambda x, **p: _dp(**p),
        {"T": Param(4, integer(1)), "A": size(), "dur": size(),
         "D": Param(3, integer(1), [0, 1, 2, 3]), "rows": Param(5, None, [4, 5, 6]),
         "final": Param(None, lambda v: v in (None, 2), [None, 1, 2, 3])},
        # the prefix sum has a row per tick and one before them
        lambda p: p["rows"] == p["T"] + 1,
    ),
    "keyframes_to_pseudo_pose_stream": EntryPoint(
        lambda x, **p: _pseudo_poses(**p),
        {"first": Param(1, integer(1)), "last": Param(4, integer(1))},
        # ticks increase strictly within the clip's four
        lambda p: p["first"] < p["last"] <= 4,
    ),
    "preset_config": EntryPoint(
        lambda x, name, override: preset_config(name, **dict([override])),
        {"name": Param("do-sim", lambda v: v in PRESETS, SCALARS + ["nope", None]),
         "override": Param(("seed", 1), lambda v: v in GOOD_OVERRIDES,
                           GOOD_OVERRIDES + BAD_OVERRIDES)},
    ),
    "TransitionLibrary": EntryPoint(
        lambda x, key, value, **p: TransitionLibrary(
            {key: _chain(**p) if value is True else value}
        ),
        {"key": Param(KEY, lambda v: v == KEY,
                      SCALARS + [None, KEY, KEY[:2], tuple(x.value for x in KEY)]),
         "value": Param(True, lambda v: v is True, [True, None, 5, "chain"]),
         "L": Param(3, integer(1), [0, 1, 3]),
         "std": Param(3, None, [1, 3, 4]),
         "means": Param((3, 2), None, [(3, 2), (1, 2), (4, 2), (3,), (3, 2, 1)])},
        # gap_std and the means have a row per position
        lambda p: p["std"] == p["L"] and p["means"] == (p["L"], 2),
    ),
    "transition_protocol": EntryPoint(
        lambda x, poses: transition_protocol(poses),
        {"poses": Param(CANONICAL_POSES, distinct_poses,
                        SCALARS + [None, "ab", [1, 2], [], (PL.OTHER,),
                                   (PL.OTHER, PL.OTHER), CANONICAL_POSES[:3],
                                   [PL.OTHER, "other"]])},
    ),
    "FeatureStream": EntryPoint(
        lambda x, v: _stream_with(v), {"v": Param(0.25, element(unit))}
    ),
    "ChannelEmissionModel": EntryPoint(
        lambda x, v: _means_with(v), {"v": Param(0.25, element(unit))}
    ),
    "DurationModel": EntryPoint(
        lambda x, mean, std, d_max: DurationModel([mean, 3.0], [std, 1.0], d_max),
        {"mean": Param(4.0, element(math.isfinite)),
         "std": Param(1.0, element(lambda v: v > 0.0)),
         "d_max": Param(6, d_max_ok)},
    ),
    "StateSpace": EntryPoint(
        lambda x, index: StateSpace((StateId(PL.SOLDIER_UP, None, index),)),
        {"index": Param(0, lambda v: is_integer(v) and v == 0)},
    ),
    "build_initial_distribution": EntryPoint(
        lambda x, pose: build_initial_distribution(
            StateSpace.from_poses([pose], scene_doubling=False)
        ),
        {"pose": Param(PL.SOLDIER_UP, lambda v: v in INITIAL_POSE_PRIORS, list(PL))},
    ),
    "ScenarioConfig": EntryPoint(
        lambda x, **p: ScenarioConfig(**p),
        {"t_target": Param(400, integer(1)),
         "F": Param(6, integer(1)),
         "transition_hold": Param(6, integer(1)),
         "transition_ramp": Param(6, integer(1)),
         "seed": Param(0, integer(0)),
         "model_seed": Param(7151, integer(0)),
         "d_max": Param(None, lambda v: v is None or d_max_ok(v), SCALARS + [None]),
         "duration_mean": Param(12.0, lambda v: is_number(v) and math.isfinite(v)),
         "duration_std": Param(3.0, lambda v: is_number(v) and v > 0.0),
         "noise": Param(0.05, unit),
         "dropout": Param(0.0, lambda v: is_number(v) and 0.0 <= v < 1.0),
         "poses": Param(MOCK_ICU_POSES, no_repeats,
                        [(), (PL.OTHER,), (PL.SOLDIER_UP, PL.SOLDIER_UP, PL.FETAL_LEFT),
                         (PL.SOLDIER_UP, PL.FETAL_LEFT)]),
         "channels": Param(DEFAULT_CHANNELS, no_repeats,
                           [(), (RGB,), (RGB, RGB), DEFAULT_CHANNELS[1:]])},
        # with no d_max, ceil(3 x mean) becomes one
        lambda q: q["d_max"] is not None or 3 * q["duration_mean"] <= D_MAX_LIMIT,
    ),
}


#: Exported functions with no entry point above, each with the reason.
NOT_FUZZED = {
    "binarize_stream": "takes only a FeatureStream, whose values FeatureStream's entry fuzzes",
    "build_generating_model": "takes only a ScenarioConfig, whose fields its entry fuzzes",
    "sample_sequence": "takes only a ScenarioConfig, whose fields its entry fuzzes",
    "sample_transition_clip": "a ScenarioConfig, whose fields its entry fuzzes, and three "
                              "enum labels",
    "encode_segments": "run-length encodes any label list; labels meet a state count in "
                       "the fits, whose label and item parameters are fuzzed",
    "hsmm_joint_log_prob": "scores a Segmentation, FeatureStream and HsmmModel, each "
                           "fuzzed; its d_max and state checks are in test_inference",
    "frame_accuracy": "compares two Segmentations; its T check is in test_summarize",
    "window_detection_rate": "compares two record lists; its length checks are in "
                             "test_summarize",
}


def test_every_exported_function_is_fuzzed_or_exempt():
    exported = {name for name, value in vars(posehsmm).items() if inspect.isfunction(value)}
    fuzzed = {name.split()[0] for name in ENTRY_POINTS}
    assert not fuzzed & set(NOT_FUZZED)
    assert sorted(exported - fuzzed) == sorted(NOT_FUZZED)


def check_call(inputs, name, params):
    """The call returns inside the domain and raises a ``PoseHsmmError``
    outside it."""
    entry = ENTRY_POINTS[name]
    in_domain = all(
        param.domain is None or param.domain(params[key])
        for key, param in entry.params.items()
    ) and entry.joint(params)
    try:
        entry.call(inputs, **params)
    except PoseHsmmError as exc:
        assert not in_domain or isinstance(exc, entry.valid_outcomes), (name, params, exc)
        return
    assert in_domain, (name, params)


@given(name=st.sampled_from(sorted(ENTRY_POINTS)), data=st.data())
@settings(max_examples=400, deadline=None)
def test_in_domain_returns_else_clean_error(inputs, name, data):
    entry = ENTRY_POINTS[name]
    picked = data.draw(st.sets(st.sampled_from(sorted(entry.params))), label="picked")
    check_call(inputs, name, {
        key: data.draw(st.sampled_from(param.candidates), label=key)
        if key in picked else param.valid
        for key, param in entry.params.items()
    })


def test_each_candidate_alone(inputs):
    for name, entry in ENTRY_POINTS.items():
        valid = {key: param.valid for key, param in entry.params.items()}
        for key, param in entry.params.items():
            for value in param.candidates:
                check_call(inputs, name, {**valid, key: value})


@pytest.mark.parametrize(
    "fit, param",
    [(lambda: fit_channel_emissions([_stream(2)], [5], RGB, 2), "segmentations"),
     (lambda: fit_channel_emissions([5], [_runs(0)], RGB, 2), "streams"),
     (lambda: fit_durations([[1, 2]], 2, 4), "segmentations"),
     (lambda: fit_transitions([[0, 1]], 2), "segmentations"),
     (lambda: fit_transitions(_runs(0), 2), "segmentations"),
     (lambda: fit_transitions(5, 2), "segmentations"),
     (lambda: fit_durations(5, 2, 4), "segmentations"),
     (lambda: fit_channel_emissions([_stream(2)], 5, RGB, 2), "segmentations"),
     (lambda: fit_channel_emissions(5, [_runs(0)], RGB, 2), "streams")],
    ids=["emissions-int-item", "emissions-int-stream", "durations-list-item",
         "transitions-list-item", "transitions-single-segmentation",
         "transitions-int-list", "durations-int-list", "emissions-int-segmentations",
         "emissions-int-streams"],
)
def test_fit_list_item_of_another_kind_is_named(fit, param):
    """An item of another kind, or a list that is no list at all."""
    with pytest.raises(BadArgument) as exc:
        fit()
    assert exc.value.param == param


def test_exports_match_readme_public_api():
    """``import posehsmm`` exports exactly the names README's "Public API"
    list gives, submodules aside."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Public API\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"`(\w+)`", " ".join(
        item.split(":", 1)[1] for item in section.split("\n- ")[1:]
    ))
    exported = [name for name, value in vars(posehsmm).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(exported)
