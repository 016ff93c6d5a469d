"""One logger tree under every runtime.

The exact simulator, the aggregate simulator and the asyncio cluster all
wire "who logs for whom" from :func:`repro.core.hierarchy.build_tree`;
the loggers each of them builds must be the tree's nodes, with the role,
level and parent the tree gives them.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioCluster, GroupDirectory
from repro.core.errors import ConfigError
from repro.core.hierarchy import build_tree
from repro.core.logger import LoggerRole
from repro.scale import AggregateDeployment
from repro.simnet import DeploymentSpec, LbrmDeployment

from tests.aio._netutil import free_udp_port

SHAPES = [(5, 2, 8), (6, 3, 3), (9, 4, 2)]  # (n_sites, depth, fanout)


def tree_says(tree) -> dict:
    return {
        name: (
            LoggerRole.PRIMARY if name == tree.root else LoggerRole.SECONDARY,
            tree.level(name),
            tree.parent(name),
            0 < tree.level(name) < tree.depth - 1,  # interior hub: never re-multicasts
        )
        for name in tree.nodes
    }


def built(tree, members, address=lambda node: node.name) -> dict:
    """The same table read off the machines a runtime built."""
    name_at = {address(members[name][1]): name for name in tree.nodes}
    return {
        name: (
            machine.role,
            machine._level,
            name_at.get(machine._parent),  # the source (not a tree node) above the root
            machine.role is LoggerRole.SECONDARY and not machine._serve_local,
        )
        for name in tree.nodes
        for machine in [members[name][0]]
    }


@pytest.mark.parametrize("n_sites,depth,fanout", SHAPES)
def test_exact_deployment_builds_the_tree(n_sites, depth, fanout):
    dep = LbrmDeployment(
        DeploymentSpec(n_sites=n_sites, receivers_per_site=2, depth=depth, fanout=fanout)
    )
    leaves = [f"site{i}-logger" for i in range(1, n_sites + 1)]
    tree = build_tree("primary", leaves, depth=depth, fanout=fanout)
    assert dep.tree.to_dict() == tree.to_dict()
    assert built(dep.tree, dep.members) == tree_says(tree)
    assert [m.addr_token for m in dep.site_loggers] == leaves
    for i, receiver in enumerate(dep.receivers):
        assert receiver.logger_chain == tree.chain(leaves[i // 2])
    if depth == 2:
        # The paper's flat layout: no alternative parent, nothing to re-score.
        assert dep.hierarchy is None
        assert dep.interior_loggers == []
        assert dep.receivers[0].logger_chain == ("site1-logger", "primary")
    else:
        assert dep.hierarchy.manager.tree is dep.tree


def test_aggregate_deployment_builds_the_same_flat_tree():
    n_sites = SHAPES[0][0]
    exact = LbrmDeployment(DeploymentSpec(n_sites=n_sites, receivers_per_site=2))
    # A shard's view: the tree spans every site, the members only its own.
    agg = AggregateDeployment(
        DeploymentSpec(n_sites=n_sites, receivers_per_site=30), site_indices=(2, 4)
    )
    assert agg.tree.to_dict() == exact.tree.to_dict()
    assert agg.hierarchy is None and agg.interior_loggers == []
    built_loggers = [name for name in agg.tree.nodes if name in agg.members]
    assert built_loggers == ["primary", "site2-logger", "site4-logger"]
    want = tree_says(exact.tree)
    for name in built_loggers:
        machine = agg.members[name][0]
        assert (machine.role, machine._level, machine._parent) == (
            want[name][0], want[name][1], want[name][2] or "source"
        )
    assert [a.logger_chain for a in agg.aggregates] == [
        ("site2-logger", "primary"), ("site4-logger", "primary"),
    ]


@pytest.mark.parametrize("field, value", [
    ("depth", 3),
    ("n_replicas", 1),
    ("secondary_loggers", False),
    ("enable_statack", True),
    ("tail_bandwidth", 1.5e6),
    ("tail_queue", 8),
])
def test_aggregate_deployment_refuses_what_it_does_not_model(field, value):
    spec = DeploymentSpec(n_sites=SHAPES[0][0], receivers_per_site=30, **{field: value})
    with pytest.raises(ConfigError, match=field):
        AggregateDeployment(spec)


@pytest.mark.network
@pytest.mark.parametrize("n_sites,depth,fanout", SHAPES)
def test_aio_cluster_builds_the_tree(n_sites, depth, fanout):
    asyncio.run(_run_aio(n_sites, depth, fanout))


async def _run_aio(n_sites, depth, fanout):
    directory = GroupDirectory()
    directory.register("test/tree/runtimes", "239.255.48.%d" % depth, free_udp_port())
    leaves = [f"leaf{i}" for i in range(n_sites)]
    tree = build_tree("primary", leaves, depth=depth, fanout=fanout)
    async with AioCluster(
        "test/tree/runtimes", n_receivers=n_sites, n_secondaries=n_sites,
        depth=depth, fanout=fanout, directory=directory,
    ) as cluster:
        assert cluster.tree.to_dict() == tree.to_dict()
        assert built(tree, cluster.members, address=lambda node: node.address) == tree_says(tree)
        address = {name: node.address for name, (_m, node) in cluster.members.items()}
        for i, receiver in enumerate(cluster.receivers):
            assert receiver.logger_chain == tuple(address[n] for n in tree.chain(leaves[i]))
        if depth == 2:
            assert cluster.interior_loggers == []
            assert cluster.receivers[0].logger_chain == (address["leaf0"], address["primary"])
