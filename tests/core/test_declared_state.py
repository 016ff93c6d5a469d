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
    "_on_primary_info": {"_chain"},
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
