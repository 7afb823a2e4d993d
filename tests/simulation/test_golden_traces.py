"""Golden trace fingerprints: absolute anchors for the simulator.

The trace-equivalence suite checks fast paths against reference paths
*in the same binary*, so a change to code both modes share (mobility
draws, a reference routing helper, the stats recorder) shifts every
trace without failing it.  These digests were recorded once and are
compared across commits: any drift in what a scenario produces fails
here.  An intentional semantic change must update them visibly in the
diff and say why.

Grid: aodv/dsr/olsr x none/blackhole/dropping x 12/20/40 nodes, 150 s
traces, seed 7, 20 connections, one attack session at 45-90 s by the
highest-numbered node.  Runs under whatever kill-switch environment the
suite is invoked with, so each CI leg pins its own mode to the same
digests.
"""

import pytest

from repro.attacks import BlackholeAttack, DropMode, PacketDroppingAttack
from repro.simulation.scenario import ScenarioConfig, run_scenario, trace_fingerprint

GOLDEN = {
    ("aodv", "none", 12): "b5baf436e41885c29d15a9e6a8fa12e15d452fe9e1f44268d83671ab6a52efe1",
    ("aodv", "none", 20): "9debdee4ce321f012c5ca96afe86dc65f07b2369daafdc0008a4a0f63924901c",
    ("aodv", "none", 40): "98ab275bdf007c368e1d167cf5f4cdb108f5f0013334059c4b45bacd52cd0561",
    ("aodv", "blackhole", 12): "189ed61640ba655dce6ec3e1adf3dce51ffddc802aa99cfba37d15b4c06d6162",
    ("aodv", "blackhole", 20): "f99346205f060665e3b5da60bfa0be387d1bb4d25d62d14315f80fa8270d73dd",
    ("aodv", "blackhole", 40): "e0e5c8d4771f7fd4931caea2b1031aab7f592d8af1bb49e3e17a75b34d9e78f2",
    ("aodv", "dropping", 12): "4b71c856ebda3b45c94ab7a4b57e95d2cb4d6b30107d416c1f1e22fb269df5bf",
    ("aodv", "dropping", 20): "64839f22390701ad4d5899679b66c9bb0c975b03aa0121c5879385c9971fce15",
    ("aodv", "dropping", 40): "3acccdeab689e9e442b8ed737b8c6a81d370244fb2fea7055bc8832f3f538747",
    ("dsr", "none", 12): "68cdba426fb95db85cbcf3618ae053d588eafda31336cd801ec319522060dbf3",
    ("dsr", "none", 20): "2b31cc22c33caf8d792719f14fc60855a486cd3a2159c69ca369ce64275c948b",
    ("dsr", "none", 40): "fd1264c39cb8c5223f04ffb2eb9c6157b585971f5efd42968fafbc93cf99caff",
    ("dsr", "blackhole", 12): "ffce8d3ada5bcbf1c26c33125a771efc77fb037671f115ecfc287a80416d841b",
    ("dsr", "blackhole", 20): "2cb9aa538df1373dbcc01ad546c5f94250cb91a6ffc0ee455fc63b0827e23f54",
    ("dsr", "blackhole", 40): "8ba44212ee4d5479846e20d1ad38bd31e4198a7e21711b73a171960ccf919b41",
    ("dsr", "dropping", 12): "26eb06b26472ef4bd15b61e2565673fd8844d99e1fa6e4c552b64a4f7a33b376",
    ("dsr", "dropping", 20): "fb546840f375757e6949ab87bd9f4cc943a5b9669bafbd797bd6b0a61f5edcfe",
    ("dsr", "dropping", 40): "3327d6b93389bd828692df1320e588d14834c3d10e71bff1c6741d0ab0fc3f1b",
    ("olsr", "none", 12): "bcab63921304a398caa6c1a77d11db451790cdd3fa6b520f8738895d26f941a6",
    ("olsr", "none", 20): "ecc1076135c1eb77052594d5d66e557b04ffc4d7e6565f68cd4b1ecf5034f692",
    ("olsr", "none", 40): "220d0a3867731c07bb361c83040d2278952a9035490ebfacef8313c3a6e4e4ac",
    ("olsr", "blackhole", 12): "074c382bd6ad32264d6cc4f8e055fbcd0fde63cbaea4b975a2bbf123956b356f",
    ("olsr", "blackhole", 20): "8f8f5d53c11f311b55c329578253b24c17a71be2050aaed8dff2e5d0980ce896",
    ("olsr", "blackhole", 40): "b4efcfbf32b5f98525bfe0a73d2362fd2d2f656ae8405c5f4bb11e0c9ce43ec6",
    ("olsr", "dropping", 12): "435635a98a4a6c63d6ce81290bdc9dbc961fa95bc0acdaa400b0ce15cc37fd06",
    ("olsr", "dropping", 20): "2bb01da79521e25c6da9e97df3a105bb67f8f475e93e04ae2a146e9f37fc738e",
    ("olsr", "dropping", 40): "e2557f2590f3be57d7fbfe484c353cc8005626752cc46a5de25325dbba2586e7",
}


def make_attacks(kind: str, n_nodes: int):
    if kind == "none":
        return []
    sessions = [(45.0, 90.0)]
    if kind == "blackhole":
        return [BlackholeAttack(attacker=n_nodes - 1, sessions=sessions)]
    return [
        PacketDroppingAttack(
            attacker=n_nodes - 1, sessions=sessions, mode=DropMode.CONSTANT
        )
    ]


@pytest.mark.parametrize("protocol,attack,n_nodes", sorted(GOLDEN))
def test_golden_trace_fingerprint(protocol, attack, n_nodes):
    config = ScenarioConfig(
        protocol=protocol, n_nodes=n_nodes, duration=150.0,
        max_connections=20, seed=7,
    )
    trace = run_scenario(config, make_attacks(attack, n_nodes))
    assert trace_fingerprint(trace) == GOLDEN[(protocol, attack, n_nodes)]
