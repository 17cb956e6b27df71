"""Frozen line-by-line stream parser: the reference the bulk parser must match.

This is the original ``fileio.read_stream``, kept verbatim.  It parses and
checks one tick line at a time and raises on the first bad one.  Tests
compare the production parser against it: the same arrays on valid files,
and a ``FormatError`` with the same text on every malformed one.
"""

import numpy as np

from posehsmm.emission import FeatureStream
from posehsmm.errors import FormatError
from posehsmm.fileio import _channels, _Reader


def reference_read_stream(path) -> FeatureStream:
    """Parse a stream file: each tick 1..T exactly once, every feature a
    finite number in [0, 1], else ``FormatError`` naming file and line."""
    r = _Reader(path, "stream")
    T = r.header("T")
    F = r.header("F")
    channels = r.header("channels", _channels)
    if T < 1 or F < 1 or len(set(channels)) != len(channels):
        raise FormatError(f"{path}: bad stream header: T={T} F={F} {channels}")
    X = np.zeros((len(channels), T, F))
    mask = np.zeros((len(channels), T), dtype=bool)
    seen = np.zeros(T, dtype=bool)
    for lineno, rec in r.numbered_records():
        where = f"{path}:{lineno}"
        if rec[0] != "tick":
            raise FormatError(f"{where}: unexpected record {rec[0]!r}")
        try:
            t = int(rec[1])
            bits = rec[2]
            values = [float(v) for v in rec[3:]]
        except (IndexError, ValueError) as exc:
            raise FormatError(f"{where}: malformed tick line: {exc}") from None
        if not 1 <= t <= T:
            raise FormatError(f"{where}: tick {t} outside 1..{T}")
        if seen[t - 1]:
            raise FormatError(f"{where}: duplicate tick {t}")
        bad_bits = len(bits) != len(channels) or not set(bits) <= {"0", "1"}
        if bad_bits or len(values) != bits.count("1") * F:
            raise FormatError(f"{where}: malformed tick {t}")
        if not all(0.0 <= v <= 1.0 for v in values):
            raise FormatError(f"{where}: features must be finite and in [0, 1]")
        mask[:, t - 1] = [b == "1" for b in bits]
        X[mask[:, t - 1], t - 1] = np.reshape(values, (-1, F))
        seen[t - 1] = True
    if not seen.all():
        raise FormatError(f"{path}: {seen.sum()} ticks for T={T}")
    return FeatureStream.from_arrays(
        {c: X[k] for k, c in enumerate(channels)},
        {c: mask[k] for k, c in enumerate(channels)},
    )
