"""Columnar truth wire: ``TruthDeltaBlock`` encode/decode ≡ pickled deltas.

The codec is a pure transport change: decoding a block must reconstruct the
exact ``VerifiedTruth`` objects a pickled delta would have delivered —
including ids (the lookup tie-break), endpoint coordinates, paths, metadata
and enum-like strings — for any delta a :class:`TruthDatabase` can hold,
empty deltas and merge-cadence sync deltas included.  Service-level tests
pin that a pooled service on the columnar wire is fingerprint-identical to
the sequential oracle.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import ServiceConfig
from repro.core.truth import TruthDatabase, VerifiedTruth
from repro.routing.base import CandidateRoute, RouteQuery
from repro.serving import (
    PooledBackend,
    RecommendationService,
    TruthDeltaBlock,
    encode_truth_delta,
    recommendation_fingerprint,
)
from repro.spatial import Point


def _roundtrip(block, network):
    """Decode the block exactly as a pool worker would: after the pipe."""
    wired = pickle.loads(pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL))
    assert isinstance(wired, TruthDeltaBlock)
    return wired.decode_truths(network)


class TestCodecRoundTrip:
    def test_empty_delta(self, serving_scenario):
        block = encode_truth_delta([], serving_scenario.network)
        assert len(block) == 0
        assert _roundtrip(block, serving_scenario.network) == []

    def test_recorded_truths_roundtrip_exactly(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        planner.recommend_batch(serving_workload[:60])
        delta = planner.truths.all()
        assert delta, "workload recorded no truths"
        block = encode_truth_delta(delta, planner.network)
        decoded = _roundtrip(block, planner.network)
        assert decoded == delta
        # Bit-exactness of the fields equality cannot see past.
        for original, copy in zip(delta, decoded):
            assert copy.truth_id == original.truth_id
            assert (copy.origin.x, copy.origin.y) == (original.origin.x, original.origin.y)
            assert copy.route.path == original.route.path
            assert copy.route.metadata == original.route.metadata
            assert type(copy.route.support) is int

    def test_adopt_all_accepts_blocks(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        planner.recommend_batch(serving_workload[:40])
        delta = planner.truths.all()
        from_block = TruthDatabase(planner.network, planner.config)
        from_block.adopt_all(encode_truth_delta(delta, planner.network))
        from_objects = TruthDatabase(planner.network, planner.config)
        from_objects.adopt_all(delta)
        assert from_block.all() == from_objects.all()
        query = RouteQuery(delta[0].route.path[0], delta[0].route.path[-1])
        assert from_block.lookup(query) == from_objects.lookup(query)

    def test_off_node_endpoints_and_irregular_metadata(self, serving_scenario):
        """Endpoints off the network and non-float metadata take the
        override tables and still round-trip exactly."""
        network = serving_scenario.network
        node_ids = network.node_ids()
        path = [node_ids[0], node_ids[1], node_ids[2]]
        truths = [
            VerifiedTruth(
                truth_id=901,
                origin=Point(-1234.5, 777.25),  # not a node location
                destination=network.node_location(node_ids[3]),
                time_slot=9,
                route=CandidateRoute(
                    path=path, source="weird", support=3,
                    metadata={"count": 4, "note_m": 1.5},  # int value: irregular
                ),
                verified_by="crowd",
                confidence=0.625,
            ),
            VerifiedTruth(
                truth_id=905,
                origin=network.node_location(node_ids[4]),
                destination=Point(99999.0, -3.5),
                time_slot=9,
                route=CandidateRoute(path=list(reversed(path)), source="weird", support=0),
                verified_by="agreement",
                confidence=0.625,
            ),
        ]
        block = encode_truth_delta(truths, network)
        assert block.origin_index.tolist()[0] == -1
        assert block.destination_index.tolist()[1] == -1
        assert 0 in block.irregular_meta
        decoded = _roundtrip(block, network)
        assert decoded == truths
        assert decoded[0].route.metadata == {"count": 4, "note_m": 1.5}
        assert type(decoded[0].route.metadata["count"]) is int

    def test_decodes_blocks_pickled_with_a_tenant_key(
        self, build_serving_planner, serving_workload, monkeypatch
    ):
        """Journals written while blocks carried a ``tenant`` tag still
        decode: the old key is ignored."""
        planner = build_serving_planner()
        planner.recommend_batch(serving_workload[:20])
        delta = planner.truths.all()
        block = encode_truth_delta(delta, planner.network)
        current = TruthDeltaBlock.__getstate__
        monkeypatch.setattr(
            TruthDeltaBlock, "__getstate__", lambda self: {**current(self), "tenant": "north"}
        )
        old = pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.undo()
        wired = pickle.loads(old)
        assert not hasattr(wired, "tenant")
        assert wired.decode_truths(planner.network) == delta

    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_deltas_roundtrip(self, serving_scenario, data):
        """Property: any delta of valid truths — random paths over real
        nodes, random slots/confidences/supports/metadata, non-contiguous
        ids — decodes to objects equal to the originals."""
        network = serving_scenario.network
        node_ids = network.node_ids()
        count = data.draw(st.integers(min_value=0, max_value=12))
        truths = []
        next_id = 1
        for _ in range(count):
            next_id += data.draw(st.integers(min_value=1, max_value=50))
            path_nodes = data.draw(
                st.lists(st.sampled_from(node_ids), min_size=2, max_size=12)
            )
            metadata_keys = data.draw(
                st.lists(
                    st.sampled_from(["length_m", "travel_time_s", "support_frac"]),
                    unique=True, max_size=3,
                )
            )
            metadata = {
                key: data.draw(st.floats(allow_nan=False, allow_infinity=False))
                for key in metadata_keys
            }
            truths.append(
                VerifiedTruth(
                    truth_id=next_id,
                    origin=network.node_location(data.draw(st.sampled_from(node_ids))),
                    destination=network.node_location(data.draw(st.sampled_from(node_ids))),
                    time_slot=data.draw(st.integers(min_value=0, max_value=23)),
                    route=CandidateRoute(
                        path=path_nodes,
                        source=data.draw(st.sampled_from(["shortest", "fastest", "MPR"])),
                        support=data.draw(st.integers(min_value=0, max_value=500)),
                        metadata=metadata,
                    ),
                    verified_by=data.draw(
                        st.sampled_from(["crowd", "agreement", "confidence", "single_candidate"])
                    ),
                    confidence=data.draw(
                        st.sampled_from([0.5, 0.6, 0.9, 0.625, 1.0])
                    ),
                )
            )
        decoded = _roundtrip(encode_truth_delta(truths, network), network)
        assert decoded == truths


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="platform has no fork start method",
)
class TestServiceWireParity:
    def _run(self, build_serving_planner, workload):
        planner = build_serving_planner()
        backend = PooledBackend(ServiceConfig(pool_size=2))
        with RecommendationService(planner, backend=backend) as service:
            responses = []
            # Several batches so later dispatches carry non-empty deltas.
            for start in range(0, len(workload), 40):
                responses.extend(service.results(service.submit(workload[start:start + 40])))
        return (
            [recommendation_fingerprint(r.result) for r in responses],
            planner.statistics.as_dict(),
            [
                (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
                for t in planner.truths.all()
            ],
        )

    def test_columnar_wire_matches_oracle(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        columnar = self._run(build_serving_planner, serving_workload)
        assert columnar[0] == sequential_oracle["plain"]["fingerprints"]
        assert columnar[2] == sequential_oracle["plain"]["truths"]
