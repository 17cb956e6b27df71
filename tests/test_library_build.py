"""The streaming transition-library build against the frozen grouped build.

``build_transition_library`` reads its clips once, in order, and keeps only
running per-key sums between them.  Its chains must equal the grouped
build's bit for bit, no clip may outlive its turn, and its memory must not
grow with the number of clips.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import posehsmm.fileio as fileio
from posehsmm.cli import _read_manifest
from posehsmm.emission import ChannelId, FeatureStream
from posehsmm.simulate import (
    CANONICAL_POSES,
    ScenarioConfig,
    sample_transition_clip,
    transition_protocol,
)
from posehsmm.summarize import build_transition_library

from reference_library_build import reference_build_library

#: The acceptance-6 keyframe threshold.
THRESHOLD = 0.25
PROTOCOL = transition_protocol()


def protocol_clip(combo, seed, dropout=0.0):
    """An acceptance-6 protocol clip (noise 0.05, no scene doubling)."""
    cfg = ScenarioConfig(seed=seed, poses=CANONICAL_POSES, scene_doubling=False,
                         noise=0.05, dropout=dropout)
    return sample_transition_clip(*combo, cfg)[0]


def without(stream, channel, keep_row=True):
    """``stream`` minus ``channel``: its row dropped, or kept but never available."""
    vectors, available = {}, {}
    for k, c in enumerate(stream.channel_ids):
        if c == channel and not keep_row:
            continue
        vectors[c] = stream.X[k]
        available[c] = stream.mask[k] & (c != channel)
    return FeatureStream.from_arrays(vectors, available)


def signature(library):
    """Entry order, means, gap statistics and clip counts, as comparable bytes."""
    return [
        (key, [(c, m.tobytes()) for c, m in chain.means.items()],
         chain.gap_mean.tobytes(), chain.gap_std.tobytes(), chain.n_clips)
        for key, chain in library.entries.items()
    ]


@pytest.fixture(scope="module")
def training_clips():
    """Two seeds of the protocol, plus clips of one key that lack a channel:
    one without its row, one with the row never available, and one with
    dropout, so some keyframe rows miss the channel."""
    clips = [(protocol_clip(combo, s), *combo) for s in (100, 101) for combo in PROTOCOL]
    key = PROTOCOL[3]
    first = clips[3][0]
    channel = first.channel_ids[0]
    clips += [
        (without(first, channel, keep_row=False), *key),
        (without(protocol_clip(key, 102), channel), *key),
        (protocol_clip(key, 103, dropout=0.3), *key),
    ]
    return clips


@pytest.mark.parametrize("k_max", [3, 8])
def test_matches_grouped_build(training_clips, k_max):
    got = build_transition_library(iter(training_clips), k_max, THRESHOLD)
    want = reference_build_library(training_clips, k_max, THRESHOLD)
    assert signature(got) == signature(want)
    chain = got.entries[PROTOCOL[3]]
    assert chain.n_clips == 5
    assert len(chain.means) == len(training_clips[3][0].channel_ids)


def test_matches_grouped_build_on_random_masks():
    # random channel subsets, availability and keyframe counts, and channel
    # rows that are never available
    rng = np.random.default_rng(3)
    channels = [ChannelId.parse(c) for c in
                ("left:RGB", "left:Depth", "center:Depth", "right:Mask")]
    clips = []
    for i in range(120):
        T = int(rng.integers(3, 30))
        picked = [c for c in channels if rng.random() < 0.6] or channels[:1]
        vectors = {c: rng.random((T, 3)) for c in picked}
        available = {c: rng.random(T) < rng.choice([0.0, 0.5, 1.0]) for c in picked}
        clips.append((FeatureStream.from_arrays(vectors, available), *PROTOCOL[i % 6]))
    for k_max in (2, 4, 7):
        got = build_transition_library(iter(clips), k_max, 0.1)
        assert signature(got) == signature(reference_build_library(clips, k_max, 0.1))
        assert len(got) > 0


def test_holds_one_clip_at_a_time():
    drawn = []

    def clips():
        for seed in (100, 101):
            for combo in PROTOCOL[:12]:
                stream = protocol_clip(combo, seed)
                assert not drawn or drawn[-1]() is None
                drawn.append(weakref.ref(stream))
                yield (stream, *combo)

    library = build_transition_library(clips(), threshold=THRESHOLD)
    assert len(drawn) == 24 and len(library) > 0


def test_manifest_reads_one_clip_at_a_time(tmp_path, monkeypatch):
    lines = []
    for k, combo in enumerate(PROTOCOL[:8]):
        fileio.write_stream(protocol_clip(combo, 100), tmp_path / f"c{k}.stream")
        lines.append(f"c{k}.stream " + " ".join(x.value for x in combo))
    manifest = tmp_path / "train.manifest"
    manifest.write_text("\n".join(lines) + "\n")
    read_stream = fileio.read_stream
    previous = []

    def checked_read(path):
        # every earlier clip is gone before the next one is parsed
        assert all(ref() is None for ref in previous)
        stream = read_stream(path)
        previous.append(weakref.ref(stream))
        return stream

    monkeypatch.setattr(fileio, "read_stream", checked_read)
    library = build_transition_library(_read_manifest(manifest), threshold=THRESHOLD)
    assert len(previous) == 8 and len(library) > 0


def build_peak(n_clips):
    """tracemalloc peak of a build over ``n_clips`` generated 200-tick clips
    cycling through ten keys, so the library itself stays the same size."""
    channels = [ChannelId.parse(c) for c in ("left:RGB", "center:Depth", "right:Mask")]
    ramp = np.linspace(0.0, 1.0, 200)[:, None]

    def clips():
        rng = np.random.default_rng(5)
        for i in range(n_clips):
            vectors = {c: np.clip(ramp + rng.normal(0, 0.05, (200, 6)), 0, 1)
                       for c in channels}
            available = {c: rng.random(200) < 0.9 for c in channels}
            yield (FeatureStream.from_arrays(vectors, available), *PROTOCOL[i % 10])

    tracemalloc.start()
    try:
        library = build_transition_library(clips(), threshold=0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(library) == 10
    return peak


def test_peak_memory_does_not_grow_with_clips():
    build_peak(10)  # first-call allocations (lazy imports, caches) out of the way
    # one clip is ~30 KB, so 350 more clips held at once would add ~10 MB;
    # the running sums add only the extra gap values (~90 KB)
    assert build_peak(400) <= build_peak(50) + 256 * 1024
