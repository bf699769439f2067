"""Property-based shedding invariants.

Under *any* arrival pattern:

1. queue depth never exceeds its bound;
2. a higher-priority event is never shed while a lower-priority event
   remains queued (shedding always targets the worst class present);
3. accounting balances: accepted = taken + shed-from-queue + residual;
4. a shed from the queue is exactly its oldest event of the worst class
   present, and an incoming event is refused only when it is strictly
   worse than everything queued.
"""

from hypothesis import given, settings, strategies as st

from repro.flow.policy import BEST_EFFORT, HIGH
from repro.flow.queues import BoundedPriorityQueue

arrivals = st.lists(
    st.tuples(st.integers(0, 9999), st.integers(HIGH, BEST_EFFORT)),
    min_size=0,
    max_size=200,
)
capacities = st.integers(1, 16)
# Interleave occasional service (take) between arrivals.
service_every = st.integers(0, 5)


@settings(max_examples=200, deadline=None)
@given(arrivals=arrivals, capacity=capacities, service_every=service_every)
def test_shedding_invariants(arrivals, capacity, service_every):
    q = BoundedPriorityQueue(capacity=capacity)
    accepted = 0
    taken = []
    shed_from_queue = 0
    for index, (item, priority) in enumerate(arrivals):
        result = q.offer((item, index), priority)
        # Invariant 1: the bound holds after every single offer.
        assert len(q) <= capacity
        if result.accepted:
            accepted += 1
        if result.shed is not None:
            shed_item, shed_priority = result.shed
            if result.accepted:
                shed_from_queue += 1
            # Invariant 2: nothing better than the victim remains queued
            # below it -- i.e. the victim is in the worst class present.
            worst_queued = max(q.priorities(), default=None)
            if worst_queued is not None:
                assert shed_priority >= worst_queued or (
                    # After eviction the victim's class may have drained;
                    # it still must not beat the incoming event's class.
                    shed_priority >= priority
                )
            # The victim can never outrank the offered event's class
            # when the offered event was accepted over it.
            if result.accepted:
                assert shed_priority >= priority
        if service_every and index % service_every == 0:
            if q.take() is not None:
                taken.append(1)
    residual = len(q.drain())
    # Invariant 3: conservation of accepted events.
    assert accepted == len(taken) + shed_from_queue + residual


@settings(max_examples=120, deadline=None)
@given(arrivals=arrivals, capacity=capacities)
def test_high_priority_never_shed_while_worse_remains(arrivals, capacity):
    q = BoundedPriorityQueue(capacity=capacity)
    for item, priority in arrivals:
        result = q.offer(item, priority)
        if result.shed is not None:
            _, shed_priority = result.shed
            # No queued event may be strictly worse than the victim.
            for queued_priority in q.priorities():
                assert queued_priority <= shed_priority


@settings(max_examples=120, deadline=None)
@given(arrivals=arrivals, capacity=capacities)
def test_service_order_is_priority_then_fifo(arrivals, capacity):
    q = BoundedPriorityQueue(capacity=capacity)
    for index, (item, priority) in enumerate(arrivals):
        q.offer((index, item), priority)
    drained = q.drain()
    priorities = [priority for _, priority in drained]
    assert priorities == sorted(priorities)
    for klass in set(priorities):
        indices = [
            entry[0] for entry, priority in drained if priority == klass
        ]
        assert indices == sorted(indices)


@settings(max_examples=200, deadline=None)
@given(arrivals=arrivals, capacity=capacities, service_every=service_every)
def test_shed_victim_is_oldest_of_worst_class(
    arrivals, capacity, service_every
):
    q = BoundedPriorityQueue(capacity=capacity)
    # What the queue should hold, in arrival order.
    model: list[tuple[int, int]] = []
    for index, (_, priority) in enumerate(arrivals):
        worst = max((p for _, p in model), default=None)
        result = q.offer(index, priority)
        if len(model) < capacity:
            assert result.accepted and result.shed is None
            model.append((index, priority))
        elif priority > worst:
            assert not result.accepted
            assert result.shed == (index, priority)
        else:
            victim = next(entry for entry in model if entry[1] == worst)
            assert result.accepted and result.shed == victim
            model.remove(victim)
            model.append((index, priority))
        if service_every and index % service_every == 0 and model:
            best = min(p for _, p in model)
            head = next(entry for entry in model if entry[1] == best)
            assert q.take() == head
            model.remove(head)
    assert q.drain() == sorted(model, key=lambda entry: entry[1])
