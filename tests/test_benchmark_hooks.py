"""The benchmark's tracer can wrap every name it patches and put each back.

``perfbench/tracer.py`` wraps public names of ``posehsmm`` where their
callers look them up (every ``fileio.read_*`` and ``fileio.write_*``, the
fits ``cli`` binds, ``FeatureStream.from_arrays`` ...).  Unbinding one of
those names, or dropping ``path`` from a ``fileio.write_*`` signature,
breaks the traced benchmark run; this test catches it in the tier-1 suite.
It imports the tracer as the benchmark's own tests do.
"""

import sys
from pathlib import Path

import pytest

import posehsmm.cli
import posehsmm.fileio
import posehsmm.inference
import posehsmm.summarize
from posehsmm.emission import FeatureStream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (posehsmm.cli, posehsmm.fileio, posehsmm.inference, posehsmm.summarize,
          FeatureStream)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_install_wraps_and_uninstall_restores_every_name(tracer):
    before = [dict(vars(owner)) for owner in OWNERS]
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = {
            (owner.__name__, attr)
            for owner, names in zip(OWNERS, before)
            for attr, value in vars(owner).items()
            if names.get(attr) is not value
        }
    finally:
        tr.uninstall()
    fileio_names = {
        ("posehsmm.fileio", attr) for attr in vars(posehsmm.fileio)
        if attr.startswith(("read_", "write_"))
    }
    assert fileio_names <= wrapped
    assert ("posehsmm.cli", "build_transition_library") in wrapped
    assert ("FeatureStream", "from_arrays") in wrapped
    for owner, names in zip(OWNERS, before):
        after = vars(owner)
        assert after.keys() == names.keys()
        assert all(after[attr] is value for attr, value in names.items()), owner
