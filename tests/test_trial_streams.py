"""Trial seeding: the streams built from a trial's SeedSequence pool against
numpy's own ``spawn(7)`` children."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dafsc import harness
from dafsc.harness import trial_seed_sequence

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

WORD = st.integers(0, 2**64 - 1)


def numpy_children(s, p, t):
    return trial_seed_sequence(s, p, t).spawn(7)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(s=WORD, p=WORD, t=WORD, prior=st.tuples(WORD, WORD, WORD),
                  count=st.integers(0, 12).map(lambda k: 2 * k + 1))
@hypothesis.example(s=0, p=0, t=0, prior=(0, 0, 0), count=1)
@hypothesis.example(s=2**32 - 1, p=2**32 - 1, t=2**32 - 1, prior=(2**32, 0, 1), count=3)
@hypothesis.example(s=2**32, p=2**32, t=2**32, prior=(2**32 - 1, 2**32, 0), count=5)
@hypothesis.example(s=harness.DEFAULT_SEED, p=0, t=2**32, prior=(1, 2, 3), count=7)
def test_streams_equal_spawned_children(s, p, t, prior, count):
    words = harness._child_words(trial_seed_sequence(s, p, t))
    want = np.array([c.generate_state(4, np.uint64) for c in numpy_children(s, p, t)])
    assert words.dtype == np.uint64 and np.array_equal(words, want)

    # draw from another trial's streams first, leaving a half-used uint32
    # in each: nothing of that trial may reach this one's draws
    for gen in harness._trial_streams(trial_seed_sequence(*prior)):
        gen.integers(0, 4, count)
    streams = harness._trial_streams(trial_seed_sequence(s, p, t))
    for gen, child in zip(streams, numpy_children(s, p, t)):
        ref = np.random.default_rng(child)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.integers(0, 4, count), ref.integers(0, 4, count))
        assert np.array_equal(gen.integers(0, 2**40, count), ref.integers(0, 2**40, count))
        assert np.array_equal(gen.uniform(-np.pi, np.pi, count),
                              ref.uniform(-np.pi, np.pi, count))
        assert np.array_equal(gen.standard_normal(count), ref.standard_normal(count))


def test_streams_first_built_on_several_threads_at_once():
    # the seeding class is built on the first trial; threads racing to
    # build it must each get numpy's children
    harness._child_state.cache_clear()
    barrier = threading.Barrier(4)

    def build(t):
        barrier.wait(timeout=60)
        return harness._trial_streams(trial_seed_sequence(1, 2, t))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            built = list(pool.map(build, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for t, streams in enumerate(built):
        for gen, child in zip(streams, numpy_children(1, 2, t)):
            assert np.array_equal(gen.integers(0, 2**40, 8),
                                  np.random.default_rng(child).integers(0, 2**40, 8))
