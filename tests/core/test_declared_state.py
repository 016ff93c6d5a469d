"""State cannot hide: every attribute a crashable machine writes after
construction is declared as surviving a crash or not (DESIGN §7).

``LbrmReceiver`` and ``LogServer`` build what a crash loses in
``_init_volatile``, which ``ProtocolMachine.__init__`` and ``restart``
both call (and the logger what it keeps in ``_init_durable``, which its
``__init__`` and ``wipe_restart`` call), so those *are* the
declaration.  An attribute a handler assigns must be built there, or be
configuration that only a named reconfiguration method moves — else a
restart would silently keep (or lose) it.  Item assignments such as
``stats[...]`` are writes into an object, not new state, and do not
count.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.core import logger, machine, receiver

BUILDERS = ("_init_volatile", "_init_durable")

# Reconfiguration methods and the configuration each may move: the
# logger chain, the topology and role, and (from the replication stream)
# the durable epoch and commit point.
RECONFIG = {
    "set_logger_chain": {"_chain"},
    "_on_primary_info": {"_chain", "_parent"},
    "set_parent": {"_parent"},
    "set_source": {"_source"},
    "_on_promote": {"_role", "_is_secondary", "_source", "_parent", "_level", "_replication", "_log_epoch"},
    "_on_repl_update": {"_log_epoch", "_commit_learned"},
}


def _stores(fn: ast.AST, owner: str = "self") -> set[str]:
    """Names of ``owner.X`` attributes ``fn`` assigns (any target form)."""
    return {
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == owner
    }


def _calls(fn: ast.AST) -> set[str]:
    """Names of the methods ``fn`` calls as ``x.name(...)``."""
    return {
        n.func.attr for n in ast.walk(fn)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    }


def _methods(module, cls) -> dict[str, ast.FunctionDef]:
    tree = ast.parse(inspect.getsource(module))
    (body,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls.__name__]
    return {n.name: n for n in body.body if isinstance(n, ast.FunctionDef)}


@pytest.mark.parametrize(
    "module, cls",
    [(receiver, receiver.LbrmReceiver), (logger, logger.LogServer)],
    ids=["LbrmReceiver", "LogServer"],
)
def test_every_attribute_written_after_init_is_declared(module, cls):
    methods = _methods(module, cls)
    declared = set().union(*(_stores(methods[b]) for b in BUILDERS if b in methods))
    assert "timers" in declared and "_init_volatile" in methods
    # One declaration: __init__ reaches the builders (the volatile one
    # through ProtocolMachine.__init__) and builds none of it itself.
    init = methods["__init__"]
    assert {"__init__", *(b for b in BUILDERS[1:] if b in methods)} <= _calls(init)
    assert "_init_volatile" in _calls(_methods(machine, machine.ProtocolMachine)["__init__"])
    assert not declared & _stores(init)
    hidden = sorted(
        (name, attr)
        for name, fn in methods.items()
        if name != "__init__" and name not in BUILDERS
        for attr in _stores(fn)
        if attr not in declared and attr not in RECONFIG.get(name, ())
    )
    assert hidden == [], f"undeclared state written by (method, attribute): {hidden}"


def test_absorb_run_writes_only_declared_receiver_state():
    """The run-level fast path writes receiver state from outside the
    class: the same rule holds for it."""
    methods = _methods(receiver, receiver.LbrmReceiver)
    tree = ast.parse(inspect.getsource(receiver.absorb_run))
    declared = _stores(methods["_init_volatile"])
    written = _stores(tree, owner="r")
    assert written and written <= declared, written - declared


def test_the_cohort_state_key_covers_every_builder_field():
    """A receiver field the builders declare is in ``state_key()`` unless
    it is a counter, the cohort membership or a cache (``_NOT_STATE``), or
    a field a cohort shares — which the key reads first, through the
    cohort.  So a field added to a builder joins the key, and two
    receivers that differ in it never share a cohort."""
    methods = _methods(receiver, receiver.LbrmReceiver)
    declared = _stores(methods["__init__"]) | _stores(methods["_init_volatile"])
    left_out = declared & receiver._NOT_STATE
    assert left_out == {"_stats", "_cohort", "_joined", "_hb_wd"} | (declared & set(receiver._SHARED))
    r = receiver.LbrmReceiver("g")
    r.start(0.0)
    key = r.state_key()
    assert key[0] == receiver._shared(r)
    keyed = [name for name in vars(r) if name not in receiver._NOT_STATE]
    assert sorted(declared - left_out) == sorted(keyed)
    for name in keyed:  # each keyed field moves the key, one at a time
        value = getattr(r, name)
        owned = type(value) in receiver._OWNED  # keyed by its own fields
        for field in [f for f in vars(value) if f not in receiver._NOT_STATE] if owned else [None]:
            other = receiver.LbrmReceiver("g")
            other.start(0.0)
            if field is None:
                setattr(other, name, _changed(getattr(other, name)))
            else:
                target = getattr(other, name)
                setattr(target, field, _changed(getattr(target, field)))
            assert other.state_key() != key, (name, field)


def _changed(value):
    """Another value of the same kind (containers stay containers)."""
    if type(value) is dict:
        return {**value, 10**9: 0.0}
    if type(value) is set:
        return value | {10**9}
    return object()
