"""The invariant oracle must catch real protocol violations.

A conformance oracle is only trustworthy if it fails when the protocol
actually breaks — each test here sabotages one mechanism and asserts the
matching invariant fires (and, where relevant, that healthy runs stay
clean).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.chaos import ChaosController, ChaosOracle, Fault, FaultSchedule
from repro.core.logger import LogServer
from repro.simnet import DeploymentSpec, LbrmDeployment


def _dep(**kw):
    return LbrmDeployment(DeploymentSpec(**{
        "n_sites": 2, "receivers_per_site": 2, "seed": 9, **kw,
    }))


def _armed(dep, *faults, **oracle_kw):
    controller = ChaosController(dep, FaultSchedule(faults=tuple(faults)))
    controller.install()
    oracle = ChaosOracle(dep, **oracle_kw)
    oracle.install()
    return oracle


def _stream(dep, n=4, spacing=0.4, drain=20.0):
    dep.start()
    dep.advance(0.2)
    for i in range(n):
        dep.send(f"pkt-{i}".encode())
        dep.advance(spacing)
    dep.advance(drain)


def test_clean_run_is_clean():
    dep = _dep()
    oracle = _armed(dep)
    _stream(dep)
    assert oracle.finish() == []


def test_oracle_counts_violations_in_obs_registry():
    with obs.recording() as reg:
        dep = _dep()
        oracle = _armed(dep, Fault("corrupt", 0.5, "site1-rx0", duration=3.0, amount=1.0))
        monkey = LogServer._on_nack
        LogServer._on_nack = lambda self, packet, src, now: []
        try:
            _stream(dep, drain=30.0)
        finally:
            LogServer._on_nack = monkey
        violations = oracle.finish()
        assert violations
        assert reg.counter_value("chaos.violations") == len(violations)


def test_disabled_retransmission_breaks_delivery():
    """The acceptance sabotage: loggers drop every NACK, so a blinded
    receiver can never recover — the delivery invariant must fire."""
    dep = _dep()
    oracle = _armed(dep, Fault("corrupt", 0.5, "site1-rx0", duration=3.0, amount=1.0))
    monkey = LogServer._on_nack
    LogServer._on_nack = lambda self, packet, src, now: []
    try:
        _stream(dep, drain=30.0)
    finally:
        LogServer._on_nack = monkey
    violations = oracle.finish()
    assert any(v.invariant == "delivery" and v.subject == "site1-rx0" for v in violations)


def test_silenced_sender_breaks_maxit():
    """Strip the sender's heartbeat timer mid-run: receivers are promised
    MaxIT-bounded silence (§2.1), so the oracle must object."""
    dep = _dep()
    oracle = _armed(dep, require_delivery=False, require_full_logs=False)
    dep.start()
    dep.advance(0.2)
    dep.send(b"only")
    dep.advance(0.3)
    dep.sender.timers.cancel(("heartbeat",))
    dep.advance(20.0)
    violations = oracle.finish()
    assert any(v.invariant == "silence" for v in violations)


def test_crashed_source_is_entitled_to_silence():
    """The same 20 s of silence with the source *down*: each sweep
    resets the silence clock instead of judging it, so I2 books nothing
    — and a restarted source gets one fresh interval, not a backdated
    violation."""
    dep = _dep()
    oracle = _armed(dep, Fault("crash", 0.5, "source"), Fault("restart", 15.0, "source"))
    dep.start()
    dep.advance(0.2)
    dep.send(b"only")
    dep.advance(10.0)
    assert not dep.source_node.alive
    assert oracle.violations == []
    dep.advance(10.0)
    assert dep.source_node.alive
    assert oracle.finish() == []


def test_premature_release_breaks_log_safety():
    """Force the source's release point past every log: I3 fires."""
    dep = _dep()
    oracle = _armed(dep, require_delivery=False, require_full_logs=False)
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(0.5)
    dep.sender._released_up_to = 99
    dep.advance(2.0)
    violations = oracle.finish()
    assert any(v.invariant == "log-safety" for v in violations)


def test_double_promotion_detected():
    dep = _dep(n_replicas=1)
    oracle = _armed(dep)
    dep.start()
    oracle.ledger.on_promotion("replica0", 1, 1.0)
    oracle.ledger.on_promotion("replica0", 2, 2.0)
    assert any(
        v.invariant == "promotion" and "second time" in v.detail for v in oracle.violations
    )


def test_regressing_promotion_detected():
    dep = _dep(n_replicas=2)
    oracle = _armed(dep)
    dep.start()
    oracle.ledger.on_promotion("replica0", 5, 1.0)
    oracle.ledger.on_promotion("replica1", 3, 2.0)
    assert any(
        v.invariant == "promotion" and "from_seq 3" in v.detail for v in oracle.violations
    )


def test_crashed_receiver_is_exempt_from_delivery():
    dep = _dep()
    oracle = _armed(dep, Fault("crash", 0.5, "site1-rx0"))
    _stream(dep)
    assert oracle.finish() == []


def test_assert_ok_raises_with_reproducible_detail():
    dep = _dep()
    oracle = _armed(dep, require_full_logs=False)
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(0.5)
    dep.sender.timers.cancel(("heartbeat",))
    dep.advance(20.0)
    with pytest.raises(AssertionError, match="silence"):
        oracle.assert_ok()


def test_double_install_rejected():
    dep = _dep()
    oracle = ChaosOracle(dep)
    oracle.install()
    with pytest.raises(RuntimeError):
        oracle.install()
