"""Mutated stream, model, truth and decoded files parse to the original or
fail cleanly.

Each example takes a valid file and applies one mutation: truncate a line
(drop its trailing tokens), swap a line's keyword with one of its fields,
put ``nan``, ``inf``, ``-inf`` or ``-1`` in place of a token, drop or
duplicate a line, or put the byte 0xff, which no UTF-8 text holds, into a
line.  The reader must then return exactly what the valid file holds or
raise a ``PoseHsmmError``; any other exception or result fails.  The byte
must be reported as ``<path>:<line>: not UTF-8 text``.

Two fields of one kind swapped in place (two feature values, say) make
another valid file, so swaps always move the line's keyword.  The one
optional record, a truth file's ``transition`` line, may be dropped: the
result is then the original without a transition.
"""

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from posehsmm import fileio
from posehsmm.errors import PoseHsmmError
from posehsmm.simulate import ScenarioConfig, sample_sequence, sample_transition_clip
from posehsmm.states import PoseLabel, RotationDirection, SceneCondition

OPS = ["truncate", "swap", "inject", "drop", "duplicate", "byte"]
INJECTED = ["nan", "inf", "-inf", "-1"]
#: Written as the lone byte 0xff under ``errors="surrogateescape"``.
BAD_BYTE = "\udcff"


def _stream_key(stream):
    return stream.channel_ids, stream.X.tobytes(), stream.mask.tobytes()


def _model_text(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        fileio.write_model(model, path)
        return path.read_text()


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """kind -> (file lines, reader, comparable form of a parse result,
    parse of the valid file)."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = ScenarioConfig(t_target=14, seed=3, scene_switch=True, duration_mean=4.0,
                         duration_std=1.0, dropout={SceneCondition.BC: 0.3,
                                                    SceneCondition.DO: 0.5})
    stream, truth = sample_sequence(cfg)
    fileio.write_stream(stream, root / "s.stream")
    space = truth.generating_model.states
    fileio.write_truth(space, truth.segmentation, truth.scene_track, root / "s.truth")
    fileio.write_model(truth.generating_model, root / "s.model")
    # a log_prob of -1, the one injected token a log-probability may take, so
    # an injection into it gives the original back or must fail
    fileio.write_decoded(truth.segmentation, -1.0, root / "s.decoded", space)
    _, clip_truth = sample_transition_clip(
        PoseLabel.SOLDIER_UP, PoseLabel.FETAL_RIGHT, RotationDirection.LEFT,
        ScenarioConfig(scene_doubling=False),
    )
    fileio.write_truth(
        clip_truth.generating_model.states, clip_truth.segmentation,
        clip_truth.scene_track, root / "c.truth", transition=clip_truth.transition,
    )
    files = {
        "stream": (root / "s.stream", fileio.read_stream, _stream_key),
        "model": (root / "s.model", fileio.read_model, _model_text),
        "truth": (root / "s.truth", fileio.read_truth, lambda t: t),
        "clip-truth": (root / "c.truth", fileio.read_truth, lambda t: t),
        "decoded": (root / "s.decoded", fileio.read_decoded, lambda d: d),
    }
    return {
        kind: (
            [ln for ln in path.read_text().splitlines() if ln.strip()],
            read, key, read(path),
        )
        for kind, (path, read, key) in files.items()
    }


def mutate(lines, op, line, pos, token):
    """One mutation of a file's lines, or None if it does not apply."""
    lines = list(lines)
    k = line % len(lines)
    tokens = lines[k].split()
    if op in ("truncate", "swap"):
        if len(tokens) < 2:
            return None
        j = 1 + pos % (len(tokens) - 1)
        if op == "truncate":
            tokens = tokens[:j]
        else:
            tokens[0], tokens[j] = tokens[j], tokens[0]
        lines[k] = " ".join(tokens)
    elif op == "inject":
        tokens[pos % len(tokens)] = token
        lines[k] = " ".join(tokens)
    elif op == "drop":
        del lines[k]
    elif op == "byte":
        j = pos % (len(lines[k]) + 1)
        lines[k] = lines[k][:j] + BAD_BYTE + lines[k][j:]
    else:
        lines.insert(k, lines[k])
    return lines


@given(
    kind=st.sampled_from(["stream", "model", "truth", "clip-truth", "decoded"]),
    op=st.sampled_from(OPS),
    line=st.integers(0, 10**6),
    pos=st.integers(0, 10**6),
    token=st.sampled_from(INJECTED),
)
@settings(max_examples=300, deadline=None)
def test_mutation_is_original_or_clean_error(valid, kind, op, line, pos, token):
    lines, read, key, original = valid[kind]
    mutated = mutate(lines, op, line, pos, token)
    if mutated is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"mutated.{kind}"
        path.write_text("\n".join(mutated) + "\n", errors="surrogateescape")
        try:
            got = read(path)
        except PoseHsmmError as exc:
            if op == "byte":
                assert str(exc) == f"{path}:{line % len(lines) + 1}: not UTF-8 text"
            return
    assert op != "byte", mutated
    allowed = [key(original)]
    if op == "drop" and lines[line % len(lines)].startswith("transition "):
        allowed.append(key(dataclasses.replace(original, transition=None)))
    assert key(got) in allowed, (op, mutated)
