"""
Connectivity topology from a world snapshot
===========================================

A hand-built scene: two sedans and the RSU, with an unconnected truck
parked in one sight line. The truck never becomes a node, but its body
pushes the blocked link past the budget, so the topology routes around it.
"""

import sys

from twinroute import (
    NodeId,
    VehicleState,
    WorldSnapshot,
    build_topologies,
    default_channel_params,
)
from twinroute.topology import TOPOLOGY_DUMP_HEADER, dump_topology

SEDAN = dict(dimensions=(4.5, 1.8, 1.5), antenna_height=1.6)
TRUCK = dict(dimensions=(8.0, 2.5, 3.2), antenna_height=3.3)


def vehicle(i, x, y, connected=True, body=SEDAN):
    return VehicleState(
        id=NodeId.vehicle(i), position=(x, y, 0.0), heading=3.14159, speed=0.0,
        connected=connected, **body,
    )


def show(title, snap):
    # one step over the snapshot's own poses
    (graph,) = build_topologies(
        snap, [snap.timestep], snap.xy_yaw[None], default_channel_params(), budget_db=110.0
    )
    print(f"\n{title}")
    print(f"  nodes: {', '.join(str(n) for n in graph.nodes)}")
    sys.stdout.write(TOPOLOGY_DUMP_HEADER)
    dump_topology(graph, sys.stdout)
    return graph


# scene 1: clear sight lines, everything one hop from the RSU
clear = WorldSnapshot.from_vehicles(
    0, (vehicle(0, 50.0, 0.0), vehicle(1, 60.0, 8.0)), (0, 0, 5.0)
)
show("clear intersection", clear)

# scene 2: an unconnected truck blocks v0's line to the RSU
blocked = WorldSnapshot.from_vehicles(
    0,
    (vehicle(0, 50.0, 0.0), vehicle(1, 60.0, 8.0), vehicle(2, 30.0, 0.0, False, TRUCK)),
    (0, 0, 5.0),
)
graph = show("truck parked on the v0-RSU sight line", blocked)

# the edge test takes node indices
v0 = graph.index[NodeId.vehicle(0)]
direct = graph.linked(v0, graph.index[NodeId.rsu()])
relay = graph.linked(v0, graph.index[NodeId.vehicle(1)])
print(f"\n  v0 direct RSU link feasible: {direct}")
print(f"  v0 can still relay via v1:   {relay}")
