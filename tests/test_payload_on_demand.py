"""A send builds its payload only once the channel accepts a receiver.

``Network.broadcast`` takes a payload source and calls it at most once per
send, at the first receiver the channel accepts (local, or remote in a
sharded run).  A GRP node hands over its bound ``outgoing_message``, so a
send that reaches nobody — an isolated sender, or a batch the channel drops
whole — never calls :meth:`GRPMessage.build`.  The counts must not move:
``sends`` and ``messages_sent`` still count every send, and a dropped
receiver is still counted as a drop.  The scan path's build point is
checked beside its fading-band draw rule in ``test_spatial_index.py``.
"""

import pytest

from reference_backends import BRUTE_FORCE, PRODUCTION, use_backend
from repro.core.messages import GRPMessage
from repro.core.node import GRPConfig
from repro.core.protocol import build_grp_network
from repro.net.channel import LossyChannel, PerfectChannel


@pytest.fixture
def builds(monkeypatch):
    """Senders of every ``GRPMessage.build`` call, in call order."""
    calls = []
    stock = GRPMessage.build.__func__

    def counting(cls, *args, **kwargs):
        calls.append(kwargs["sender"])
        return stock(cls, *args, **kwargs)

    monkeypatch.setattr(GRPMessage, "build", classmethod(counting))
    return calls


@pytest.mark.parametrize("backend", [PRODUCTION, BRUTE_FORCE])
def test_isolated_sender_builds_nothing(builds, backend):
    deployment = build_grp_network({"a": (0.0, 0.0), "far": (500.0, 0.0)},
                                   GRPConfig(dmax=2), radio_range=50.0, seed=1)
    use_backend(deployment.network, backend)
    deployment.run(10.0)
    sends = sum(node.sends for node in deployment.nodes.values())
    assert sends >= 2 * 15
    assert deployment.network.messages_sent == sends
    assert deployment.network.messages_dropped == 0
    assert builds == []


# Zero delays take the channel's zero-delay hook, positive ones the
# ``decide_batch`` bulk rule; the brute-force backend takes the scan.
@pytest.mark.parametrize("delay, backend", [(0.0, PRODUCTION), (0.02, PRODUCTION),
                                            (0.0, BRUTE_FORCE)],
                         ids=["zero_delay_hook", "decide_batch", "scan"])
def test_a_channel_that_drops_every_receiver_builds_nothing(builds, delay, backend):
    positions = {i: (float(10 * i), 0.0) for i in range(4)}
    channel = LossyChannel(loss_probability=1.0, min_delay=delay, max_delay=delay)
    deployment = build_grp_network(positions, GRPConfig(dmax=2), radio_range=50.0,
                                   channel=channel, seed=2)
    network = deployment.network
    use_backend(network, backend)
    deployment.run(5.0)
    assert network.messages_sent >= 4 * 8
    # Every send still counts each of its three receivers as a drop.
    assert network.messages_dropped == 3 * network.messages_sent
    assert network.messages_delivered == 0
    assert builds == []


def test_a_halo_send_builds_once_for_its_remote_receivers(builds):
    """A sharded worker's send whose only receiver is owned by another shard
    builds its message once and hands it to the outbox; an isolated sender
    in the same worker builds nothing."""
    deployment = build_grp_network({"a": (0.0, 0.0), "b": (30.0, 0.0),
                                    "c": (500.0, 0.0)},
                                   GRPConfig(dmax=2), radio_range=50.0,
                                   channel=PerfectChannel(delay=0.01), seed=3)
    network = deployment.network
    outbox = []
    network.set_partition({"a": 0, "b": 1, "c": 0}, 0, outbox)
    sender, isolated = deployment.nodes["a"], deployment.nodes["c"]
    sender._on_ts_expired()
    isolated._on_ts_expired()
    assert network.messages_sent == 2
    assert builds == ["a"]
    assert len(outbox) == 1
    receive_time, source, receiver, payload = outbox[0]
    assert (receive_time, source, receiver) == (0.01, "a", "b")
    assert payload is sender.outgoing_message()
    assert builds == ["a"]  # the outbox holds the node's cached message
