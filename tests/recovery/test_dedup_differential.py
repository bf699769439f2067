"""DedupWindow against the set-rebuilding implementation it replaced.

The reference below is ``seen`` as it stood: once a source's window had
filled, every fresh in-order sequence rebuilt the whole set.  Verdicts and
counters must agree on any arrival order; the sliding version additionally
never tracks more than ``window`` sequences and never walks the set.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.recovery.dedup import DedupWindow


class ReferenceWindow:
    """The rebuilding implementation, kept verbatim as the oracle."""

    def __init__(self, window, max_sources):
        self.window = window
        self.max_sources = max_sources
        self.sources = OrderedDict()  # source -> [max_seq, recent]
        self.accepted = self.suppressed = 0
        self.suppressed_stale = self.sources_evicted = 0

    def seen(self, source, seq):
        state = self.sources.get(source)
        if state is None:
            state = self.sources[source] = [-1, set()]
            if len(self.sources) > self.max_sources:
                self.sources.popitem(last=False)
                self.sources_evicted += 1
        else:
            self.sources.move_to_end(source)
        max_seq, recent = state
        if max_seq >= 0 and seq <= max_seq - self.window:
            self.suppressed_stale += 1
            return True
        if seq in recent:
            self.suppressed += 1
            return True
        recent.add(seq)
        if seq > max_seq:
            state[0] = seq
            if len(recent) > self.window:
                floor = seq - self.window
                state[1] = {s for s in recent if s > floor}
        self.accepted += 1
        return False


def _counters(window):
    return (
        window.accepted,
        window.suppressed,
        window.suppressed_stale,
        window.sources_evicted,
    )


# Publisher sequences count up from zero.  Small steps give in-order runs,
# duplicates and near reordering; the occasional large value jumps the
# window past everything held and makes what follows stale.
_ARRIVALS = st.lists(
    st.tuples(
        st.sampled_from("pqrs"),
        st.one_of(st.integers(0, 40), st.integers(0, 2000)),
    ),
    max_size=200,
)


@settings(max_examples=300, deadline=None)
@given(
    window=st.integers(1, 16),
    max_sources=st.integers(1, 4),
    arrivals=_ARRIVALS,
)
def test_verdicts_and_counters_match_the_rebuilding_reference(
    window, max_sources, arrivals
):
    sliding = DedupWindow(window=window, max_sources=max_sources)
    reference = ReferenceWindow(window, max_sources)
    for source, seq in arrivals:
        assert sliding.seen(source, seq) == reference.seen(source, seq)
        assert _counters(sliding) == _counters(reference)
        assert len(sliding) == len(reference.sources)
        assert sliding.tracked(source) <= window


class _SpySet(set):
    """A set that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_in_order_run_never_rebuilds_or_walks_the_set():
    window = DedupWindow(window=1024)
    window.seen("p", 0)
    state = window._sources["p"]
    spy = state.recent = _SpySet(state.recent)
    for seq in range(1, 20_000):
        assert window.seen("p", seq) is False
    assert state.recent is spy  # slid in place, never replaced
    assert spy.walks == 0
    assert window.tracked("p") == 1024
    assert window.accepted == 20_000
