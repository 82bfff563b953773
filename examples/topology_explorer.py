"""Explore storage-network topologies (Figure 5).

Builds the paper's example topologies under the 8-ports-per-node
constraint, computes hop statistics and aggregate capacity, measures a
real message's latency on each, and shows the network configuration
file that programs the deterministic routing tables (Section 3.2.3).

Run:  python examples/topology_explorer.py
"""

from repro.network import (
    StorageNetwork,
    fat_tree,
    fully_connected,
    mesh2d,
    ring,
    shortest_hop_counts,
    star,
)
from repro.sim import Simulator, units


def describe(name, topo):
    sim = Simulator()
    net = StorageNetwork(sim, topo, n_endpoints=2)
    n = topo.n_nodes
    max_ports = max(topo.ports_used(i) for i in range(n))

    # Measure a real 16-byte message to the farthest node from node 0.
    dist = shortest_hop_counts(topo, 0)
    far = max(dist, key=dist.get)

    def sender(sim):
        yield from net.endpoint(0, 0).send(far, "probe", 16)

    def receiver(sim):
        yield from net.endpoint(far, 0).receive()
        return sim.now

    sim.process(sender(sim))
    latency = sim.run_process(receiver(sim))

    print(f"{name:18s} nodes={n:<3d} cables={len(topo.cables):<3d} "
          f"max_ports={max_ports}  avg_hops={net.average_hop_count():.2f}  "
          f"farthest={dist[far]} hops ({units.to_us(latency):.2f} us)  "
          f"capacity={net.total_payload_gbps_capacity():.0f} Gb/s")


def main():
    print("Figure 5: any topology is possible with <= 8 ports per node\n")
    describe("ring (paper, x4)", ring(20, lanes=4))
    describe("ring (x1)", ring(20, lanes=1))
    describe("2-D mesh 4x5", mesh2d(4, 5))
    describe("distributed star", star(9))
    describe("fat tree 4+8", fat_tree(n_spine=4, n_leaf=8))
    describe("fully connected", fully_connected(9))

    print("\nnetwork configuration file for a 5-node ring "
          "(programs routing tables, Section 3.2.3):")
    print(ring(5).to_config())


if __name__ == "__main__":
    main()
