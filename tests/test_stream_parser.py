"""The bulk stream parser against the frozen line-by-line reference.

On a valid stream both parsers must give bit-identical channel ids, X and
mask; on a malformed one both must raise a ``FormatError`` with the same
text.  The files cover every mutation class of the format fuzz test on every
line, named edge cases, and streams longer than one parse chunk.
"""

import numpy as np
import pytest

from posehsmm import fileio
from posehsmm.emission import ChannelId, FeatureStream
from posehsmm.errors import FormatError
from posehsmm.simulate import ScenarioConfig, sample_sequence
from posehsmm.states import SceneCondition

from reference_stream_parser import reference_read_stream
from test_format_fuzz import INJECTED, OPS, mutate

#: header lines before the first tick: format, kind, T, F, channels
HEADER = 5


def outcome(read, path):
    try:
        s = read(path)
    except FormatError as exc:
        return "error", str(exc)
    return s.channel_ids, s.X.shape, s.X.tobytes(), s.mask.tobytes()


def check(path, lines):
    """Write ``lines`` to ``path``, parse it both ways and return the common
    outcome."""
    path.write_text("\n".join(lines) + "\n", errors="surrogateescape")
    want = outcome(reference_read_stream, path)
    assert outcome(fileio.read_stream, path) == want, lines
    return want


@pytest.fixture(scope="module")
def lines(tmp_path_factory):
    """A 14-tick stream with dropout and a scene switch (the fuzz stream)."""
    cfg = ScenarioConfig(t_target=14, seed=3, scene_switch=True, duration_mean=4.0,
                         duration_std=1.0, dropout={SceneCondition.BC: 0.3,
                                                    SceneCondition.DO: 0.5})
    stream, _ = sample_sequence(cfg)
    assert stream.T == 14
    path = tmp_path_factory.mktemp("parity") / "s.stream"
    fileio.write_stream(stream, path)
    return path.read_text().splitlines()


def test_every_fuzz_mutation(lines, tmp_path):
    """Each mutation class of the fuzz test, at every line and position."""
    variants = set()
    for op in OPS:
        for line in range(len(lines)):
            width = len(lines[line].split())
            for pos in range(width if op in ("truncate", "swap", "inject") else 1):
                for token in INJECTED if op == "inject" else [None]:
                    mutated = mutate(lines, op, line, pos, token)
                    if mutated is not None:
                        variants.add(tuple(mutated))
    got = [check(tmp_path / "m.stream", v)[0] for v in sorted(variants)]
    assert 0 < got.count("error") < len(got)


def _edit(change):
    """A mutation: ``change`` maps the tokens of the first tick line after
    tick 1 with two set bits to new tokens."""

    def apply(lines):
        k = next(i for i in range(HEADER + 1, len(lines))
                 if lines[i].split()[2].count("1") >= 2)
        return lines[:k] + [" ".join(change(lines[k].split()))] + lines[k + 1 :]

    return apply


def _set(field, token):
    return _edit(lambda rec: rec[:field] + [token] + rec[field + 1 :])


def _insert(at, new):
    return lambda lines: lines[: HEADER + at] + new + lines[HEADER + at :]


NAMED = {
    "tick-zero": (_set(1, "0"), True),
    "tick-past-end": (_set(1, "15"), True),
    "duplicate-tick": (_set(1, "1"), True),
    "non-integer-tick": (_set(1, "2.0"), True),
    "bits-too-wide": (_edit(lambda rec: rec[:2] + [rec[2] + "0"] + rec[3:]), True),
    "bit-two": (_edit(lambda rec: rec[:2] + [rec[2].replace("1", "2", 1)] + rec[3:]), True),
    "value-short": (_edit(lambda rec: rec[:-1]), True),
    "value-extra": (_edit(lambda rec: rec + ["0.5"]), True),
    "nan": (_set(3, "nan"), True),
    "inf": (_set(3, "inf"), True),
    "minus-one": (_set(3, "-1"), True),
    "one-and-a-half": (_set(3, "1.5"), True),
    "unknown-keyword": (_insert(2, ["note 1 2"]), True),
    "blank-lines": (_insert(1, ["", "   "]), False),
    "underscore-digits": (_set(3, "0.2_5"), False),
    "minus-zero": (_set(3, "-0"), False),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_case(lines, tmp_path, name):
    edit, is_error = NAMED[name]
    got = check(tmp_path / "n.stream", edit(lines))
    assert (got[0] == "error") == is_error


def test_named_cases_cover_every_message(lines, tmp_path):
    """The named cases reach each tick-line message of the parser."""
    messages = set()
    for name, (edit, _) in NAMED.items():
        got = check(tmp_path / f"{name}.stream", edit(lines))
        if got[0] == "error":
            messages.add(got[1].split(": ", 1)[1].split(" ")[0])
    assert messages == {"tick", "duplicate", "malformed", "features", "unexpected"}


@pytest.fixture(scope="module")
def long_lines(tmp_path_factory):
    """A stream longer than one parse chunk, with masked and all-off ticks."""
    rng = np.random.default_rng(8)
    T, F = fileio.STREAM_CHUNK + 150, 2
    ids = [ChannelId.parse(c) for c in ("center:Depth", "left:RGB")]
    stream = FeatureStream.from_arrays(
        {c: rng.choice([0.0, 0.25, 1.0], (T, F)) for c in ids},
        {c: rng.random(T) < 0.6 for c in ids},
    )
    path = tmp_path_factory.mktemp("parity") / "long.stream"
    fileio.write_stream(stream, path)
    return path.read_text().splitlines()


def test_chunk_boundaries(long_lines, tmp_path):
    head, ticks = long_lines[:HEADER], long_lines[HEADER:]
    # a tick line in the second chunk that carries values
    late = next(i for i in range(fileio.STREAM_CHUNK + 40, len(ticks))
                if "1" in ticks[i].split()[2])
    shuffled = [ticks[i] for i in np.random.default_rng(1).permutation(len(ticks))]
    out_of_range = ticks[late].rsplit(" ", 1)[0] + " 2"
    cases = {
        "in-order": ticks,
        "shuffled": shuffled,
        "reversed": ticks[::-1],
        "late-duplicate": ticks[:late] + [ticks[3]] + ticks[late + 1 :],
        "late-bad-value": ticks[:late] + [out_of_range] + ticks[late + 1 :],
        "missing-tick": ticks[:late] + ticks[late + 1 :],
        "extra-line": ticks + ["tick 1 00"],
    }
    parsed = [name for name, body in cases.items()
              if check(tmp_path / "c.stream", head + body)[0] != "error"]
    assert parsed == ["in-order", "shuffled", "reversed"]
