"""Property tests: the engine against a model of its contract.

:class:`ModelSimulator` below is the contract written the naive way — a
list of ``(time, tie)``-keyed entries; running pops the minimum — with
the same API as :class:`~repro.simnet.engine.Simulator`.  Both are
driven through identical operation sequences — schedule (in the past
too), cancel, cancel from inside a callback, chained scheduling at the
current instant, staggered ``run_until`` with ``max_events`` budgets
that stop mid-timestamp, handles dropped at once — and must agree on
the ``(now, label)`` trace, on every counter after every single op, and
on where the clock lands.  Any divergence is an engine bug.

The mutation check is part of the suite: a copy of the engine module
whose heap key leaves out ``tie`` must fail the example pinned for it.

The oldest tests keep the names the test floor knows them by (read
``wheel`` as the engine, ``reference`` as the model, ``freelist`` as
event handles coming and going); their docstrings say what they check.
"""

from __future__ import annotations

import inspect
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet import engine as engine_module
from repro.simnet.engine import Simulator


class _ModelEvent:
    def __init__(self, key, callback, args):
        self.key, self.callback, self.args, self.cancelled = key, callback, args, False

    def cancel(self):
        self.cancelled = True


class ModelSimulator:
    """The contract: events run in (time, tie) order; tie is schedule order."""

    def __init__(self):
        self.now, self.queue, self.ties, self.processed, self.peak_pending = 0.0, [], 0, 0, 0

    pending = property(lambda self: sum(not e.cancelled for e in self.queue))
    tombstones = property(lambda self: sum(e.cancelled for e in self.queue))

    def schedule(self, at, callback, *args):
        event = _ModelEvent((max(at, self.now), self.ties), callback, args)
        self.ties += 1
        self.queue.append(event)
        self.peak_pending = max(self.peak_pending, self.pending)
        return event

    def run_until(self, deadline, max_events=None):
        executed = 0
        while self.queue and (max_events is None or executed < max_events):
            event = min(self.queue, key=lambda e: e.key)
            if event.key[0] > deadline:
                break
            self.queue.remove(event)
            if not event.cancelled:
                self.now = event.key[0]
                event.callback(*event.args)
                executed += 1
        self.processed += executed
        self.now = max(self.now, deadline)
        return executed


# One operation per list element:
#   ("schedule", delay, chain)  delay < 0 asks for the past; chain > 0 =>
#                               the callback schedules chain follow-ups,
#                               the first at the current instant, the
#                               rest 0.003 s apart
#   ("cancel", index)           cancel the index-th schedule (mod count)
#   ("run", dt)                 advance the clock by dt
_DELAYS = st.floats(min_value=-0.5, max_value=2.0, allow_nan=False)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS, st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=0.5, allow_nan=False)),
    ),
    min_size=1,
    max_size=60,
)

# Five co-timed events: only the tie counter orders them, and a binary
# heap that compares on time alone pops them out of schedule order from
# the fourth on.
_FIFO_KILL = [("schedule", 0.25, 0)] * 5 + [("run", 0.5)]


def _drive(sim, ops) -> list[tuple[float, int]]:
    """Apply ``ops`` to ``sim``; return (now, label) per firing."""
    fired: list[tuple[float, int]] = []
    handles: list = []
    label = iter(range(10**6))

    def schedule(at: float, chain: int) -> None:
        # A past time is clamped to *now*; an event fires exactly when due.
        handles.append(sim.schedule(at, fire, next(label), chain, max(at, sim.now)))

    def fire(tag: int, chain: int, due: float) -> None:
        assert sim.now == due
        fired.append((sim.now, tag))
        for i in range(chain):
            schedule(sim.now + 0.003 * i, 0)

    for op in ops:
        if op[0] == "schedule":
            schedule(sim.now + op[1], op[2])
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        else:
            sim.run_until(sim.now + op[1])
    sim.run_until(sim.now + 10.0)  # drain everything still pending
    return fired


def _assert_order_matches_model(simulator, ops) -> None:
    got, want = _drive(simulator(), ops), _drive(ModelSimulator(), ops)
    assert got == want, "engine and model traces differ"


@settings(max_examples=150, deadline=None)
@given(_OPS)
@example(_FIFO_KILL)
def test_wheel_matches_reference_order(ops):
    """Identical op sequences fire identical (now, label) traces."""
    _assert_order_matches_model(Simulator, ops)


def test_a_heap_key_without_the_tie_is_caught():
    """Mutation check: order the heap on time alone and FIFO breaks."""
    source = inspect.getsource(engine_module)
    push, pop = "(at, tie, event))", "when, _tie, event = pop(queue)"
    assert source.count(push) == 1 and source.count(pop) == 1, "the heap entry moved"
    mutant = types.ModuleType("engine_mutant")
    source = source.replace(push, "(at, event))").replace(pop, "when, event = pop(queue)")
    exec(compile(source, mutant.__name__, "exec"), mutant.__dict__)
    mutant.ScheduledEvent.__lt__ = lambda self, other: self.time < other.time
    _assert_order_matches_model(Simulator, _FIFO_KILL)  # the real key passes it ...
    with pytest.raises(AssertionError, match="differ"):
        _assert_order_matches_model(mutant.Simulator, _FIFO_KILL)  # ... the mutant cannot


@settings(max_examples=50, deadline=None)
@given(_OPS)
def test_wheel_accounting_matches_reference(ops):
    """processed/peak agree after any interleaving; the queue drains to zero."""
    sim, model = Simulator(), ModelSimulator()
    _drive(sim, ops)
    _drive(model, ops)
    assert (sim.processed, sim.peak_pending) == (model.processed, model.peak_pending)
    assert sim.pending == model.pending == 0
    assert sim.tombstones == 0  # a fully drained heap holds no cancelled entries


# -- accounting under adversarial interleavings ------------------------------
#
# The properties below churn the queue as hard as possible — handles
# dropped immediately, cancels from inside callbacks, run_until budgets
# that stop mid-timestamp — and assert what an accounting or ordering
# bug would break: execution order still matches the model, a cancelled
# event never fires, and the counters agree with the model's after
# every single op.

# ("schedule", delay, chain, keep)   keep=False drops the handle at once
# ("cancel", index)                  cancel the index-th *kept* handle
# ("cancel_inside", delay, index)    schedule a canceller firing at delay
# ("run", dt, budget)                run_until(now+dt, max_events=budget)
_CHURN_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"), _DELAYS, st.integers(min_value=0, max_value=2), st.booleans()
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(
            st.just("cancel_inside"),
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            st.integers(min_value=0, max_value=200),
        ),
        st.tuples(
            st.just("run"),
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
        ),
    ),
    min_size=1,
    max_size=60,
)


def _drive_churn(sim, ops):
    """Apply churn ops; return (trace, wrongly-fired labels, counters per op)."""
    fired: list[tuple[float, int]] = []
    kept: list = []
    cancelled_unfired: set[int] = set()
    fired_labels: set[int] = set()
    counters: list[tuple] = []
    label = iter(range(10**6))

    def cancel_kept(index: int) -> None:
        if not kept:
            return
        tag, handle = kept[index % len(kept)]
        if tag not in fired_labels and not handle.cancelled:
            cancelled_unfired.add(tag)
        handle.cancel()

    def fire(tag: int, chain: int) -> None:
        fired.append((sim.now, tag))
        fired_labels.add(tag)
        for i in range(chain):
            # Chained events drop their handles immediately: the only
            # reference lives inside the engine.
            sim.schedule(sim.now + 0.003 * i, fire, next(label), 0)

    def canceller(tag: int, index: int) -> None:
        fired.append((sim.now, tag))
        fired_labels.add(tag)
        cancel_kept(index)

    for op in ops:
        if op[0] == "schedule":
            tag = next(label)
            handle = sim.schedule(sim.now + op[1], fire, tag, op[2])
            if op[3]:
                kept.append((tag, handle))
        elif op[0] == "cancel":
            cancel_kept(op[1])
        elif op[0] == "cancel_inside":
            tag = next(label)
            kept.append((tag, sim.schedule(sim.now + op[1], canceller, tag, op[2])))
        else:
            deadline = sim.now + op[1]
            sim.run_until(deadline, max_events=op[2])
            assert sim.now == deadline  # the clock lands on the deadline, budget or not
        counters.append((sim.now, sim.pending, sim.tombstones, sim.peak_pending, sim.processed))
    sim.run_until(sim.now + 10.0)
    return fired, fired_labels & cancelled_unfired, counters


@settings(max_examples=150, deadline=None)
@given(_CHURN_OPS)
def test_freelist_never_resurrects_cancelled_events(ops):
    """Dropped handles + cancels from callbacks: order still matches the
    model, and nothing cancelled-before-due ever fires."""
    fired, wrong, _ = _drive_churn(Simulator(), ops)
    model_fired, model_wrong, _ = _drive_churn(ModelSimulator(), ops)
    assert wrong == set()
    assert model_wrong == set()
    assert fired == model_fired


@settings(max_examples=100, deadline=None)
@given(_CHURN_OPS)
def test_accounting_never_negative_under_churn(ops):
    """now/pending/tombstones/peak/processed equal the model's after every
    single op, never go negative, and drain to zero."""
    sim, model = Simulator(), ModelSimulator()
    _, _, counters = _drive_churn(sim, ops)
    _, _, model_counters = _drive_churn(model, ops)
    assert counters == model_counters
    for _now, pending, tombstones, peak, _processed in counters:
        assert pending >= 0 and tombstones >= 0 and peak >= pending
    assert sim.pending == model.pending == 0
    assert sim.tombstones == model.tombstones == 0
    assert sim.processed == model.processed


@settings(max_examples=100, deadline=None)
@given(_CHURN_OPS, st.integers(min_value=0, max_value=5))
def test_run_until_budget_matches_reference(ops, budget):
    """Stopping mid-timestamp via max_events leaves identical state."""
    outcomes = []
    for sim in (Simulator(), ModelSimulator()):
        fired = []
        for i, op in enumerate(ops):
            if op[0] == "schedule":
                sim.schedule(sim.now + op[1], fired.append, i)
        sim.run_until(sim.now + 1.0, max_events=budget)
        outcomes.append((fired, sim.processed, sim.pending))
    assert outcomes[0] == outcomes[1]


def test_freelist_reuse_is_invisible_to_stale_handles():
    """A handle kept past its event's firing can never touch a later
    event: cancel-after-fire is a no-op forever, however many events
    have come and gone since."""
    sim = Simulator()
    fired: list[str] = []
    first = sim.schedule(1.0, fired.append, "first")
    sim.run_until(2.0)
    assert fired == ["first"]
    for _ in range(64):  # handles dropped at once
        sim.schedule(sim.now + 0.001, fired.append, "churn")
    sim.run_until(sim.now + 1.0)
    later = sim.schedule(sim.now + 1.0, fired.append, "later")
    first.cancel()
    assert not later.cancelled and sim.tombstones == 0
    sim.run_until(sim.now + 2.0)
    assert fired[-1] == "later"
