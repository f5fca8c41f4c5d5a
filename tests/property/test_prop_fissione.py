"""Property-based tests for FISSIONE topology maintenance and routing."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fissione.network import FissioneNetwork
from repro.fissione.routing import route
from repro.fissione.stabilize import check_topology
from repro.kautz import strings as ks
from repro.sim.rng import DeterministicRNG


class TestTopologyProperties:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=3, max_value=120), st.integers(min_value=0, max_value=1000))
    def test_random_build_always_healthy(self, num_peers, seed):
        network = FissioneNetwork.build(
            num_peers, DeterministicRNG(seed).substream("topology"), object_id_length=20
        )
        report = check_topology(network)
        assert report.healthy
        assert report.within_paper_bounds()

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=500),
        st.lists(st.sampled_from(["join", "leave"]), min_size=1, max_size=40),
    )
    def test_arbitrary_churn_sequences_preserve_invariants(self, seed, operations):
        rng = DeterministicRNG(seed)
        network = FissioneNetwork.build(20, rng.substream("topology"), object_id_length=20)
        for index, operation in enumerate(operations):
            if operation == "join":
                network.join(rng=rng.substream("join", index))
            elif network.size > network.base + 1:
                victim = network.random_peer(rng.substream("leave", index)).peer_id
                network.leave(victim)
        report = check_topology(network)
        assert report.covers_namespace
        assert report.prefix_free
        assert report.neighborhood_violations == 0

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=10 ** 6))
    def test_routing_reaches_owner_with_bounded_hops(self, seed, key_seed):
        network = FissioneNetwork.build(
            60, DeterministicRNG(seed).substream("topology"), object_id_length=20
        )
        rng = DeterministicRNG(key_seed)
        object_id = ks.unrank(
            key_seed % ks.space_size(2, 20), 20, base=2
        )
        source = network.random_peer(rng).peer_id
        path = route(network, source, object_id)
        assert path.destination == network.owner_id(object_id)
        assert path.hops <= len(source)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=500),
        st.lists(st.sampled_from(["join", "leave"]), min_size=1, max_size=40),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=0)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_incremental_lookups_match_brute_force(self, seed, operations, probes):
        """Maintained max length and prefix scans agree with full rescans."""
        rng = DeterministicRNG(seed)
        network = FissioneNetwork.build(12, rng.substream("topology"), object_id_length=20)
        for index, operation in enumerate(operations):
            if operation == "join":
                network.join(rng=rng.substream("join", index))
            elif network.size > network.base + 1:
                victim = network.random_peer(rng.substream("leave", index)).peer_id
                network.leave(victim)
            assert network.max_id_length() == max(map(len, network.peer_ids()))
        peer_ids = network.peer_ids()
        prefixes = [""] + [
            ks.unrank(draw % ks.space_size(2, length), length) if length else ""
            for length, draw in probes
        ]
        # Prefixes of real PeerIDs hit the non-empty runs of the sorted list.
        prefixes += [peer_id[: len(peer_id) // 2] for peer_id in peer_ids[::4]]
        for prefix in prefixes:
            assert network.peers_with_prefix(prefix) == [
                peer_id for peer_id in peer_ids if peer_id.startswith(prefix)
            ]
            assert network.compatible_peers(prefix) == [
                peer_id
                for peer_id in peer_ids
                if peer_id.startswith(prefix) or prefix.startswith(peer_id)
            ]
