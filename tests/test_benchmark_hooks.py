"""The benchmark's tracer can wrap every name it patches and put each back.

``perfbench/tracer.py`` wraps public names of ``posehsmm`` where their
callers look them up (every ``fileio.read_*`` and ``fileio.write_*``, the
fits ``cli`` binds, ``FeatureStream.from_arrays`` ...).  Unbinding one of
those names, or dropping ``path`` from a ``fileio.write_*`` signature,
breaks the traced benchmark run; this test catches it in the tier-1 suite.
It imports the tracer as the benchmark's own tests do.
"""

from collections import Counter
from pathlib import Path

import pytest

import posehsmm.cli
import posehsmm.fileio
import posehsmm.inference
import posehsmm.summarize
from posehsmm.emission import FeatureStream, fit_channel_emissions
from posehsmm.inference import fit_durations, fit_transitions
from posehsmm.simulate import preset_config, sample_sequence
from posehsmm.states import build_initial_distribution

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


def _simulated_pairs():
    streams, truths = zip(*(
        sample_sequence(preset_config("bc-sim", seed=seed, t_target=80))
        for seed in (1, 2)
    ))
    space = truths[0].generating_model.states
    return streams, [t.segmentation for t in truths], space


def test_fit_hsmm_calls_the_fits_cli_binds(monkeypatch):
    """The tracer's ``fit`` spans wrap the part-fits where ``cli`` binds
    them; ``fit_hsmm`` must look them up there."""
    calls = Counter()

    def counted(attr, fit):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fit(*args, **kwargs)
        return wrapper

    for attr in ("fit_transitions", "fit_durations", "fit_channel_emissions"):
        monkeypatch.setattr(posehsmm.cli, attr, counted(attr, getattr(posehsmm.cli, attr)))
    streams, segmentations, space = _simulated_pairs()
    posehsmm.cli.fit_hsmm(streams, segmentations, space)
    n_channels = len({c for s in streams for c in s.channels})
    assert n_channels > 1
    assert calls == {"fit_transitions": 1, "fit_durations": 1,
                     "fit_channel_emissions": n_channels}


def test_fit_hsmm_is_the_three_fits_composed():
    streams, segmentations, space = _simulated_pairs()
    model = posehsmm.cli.fit_hsmm(streams, segmentations, space)
    n = len(space)
    durations = fit_durations(segmentations, n, model.d_max)
    channels = sorted({c for s in streams for c in s.channels})
    assert list(model.emissions) == channels
    assert model.states == space
    assert model.pi.tobytes() == build_initial_distribution(space).tobytes()
    assert model.A.tobytes() == fit_transitions(segmentations, n).tobytes()
    assert model.durations.mean.tobytes() == durations.mean.tobytes()
    assert model.durations.std.tobytes() == durations.std.tobytes()
    for c in channels:
        means = fit_channel_emissions(streams, segmentations, c, n).means
        assert model.emissions[c].means.tobytes() == means.tobytes()
