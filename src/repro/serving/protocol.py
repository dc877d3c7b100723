"""Request/response envelopes and the backend protocol of the serving layer.

The :class:`~repro.serving.service.RecommendationService` speaks one unified
vocabulary regardless of how batches are executed:

* :class:`RecommendRequest` wraps a :class:`~repro.routing.base.RouteQuery`
  with a service-issued request id;
* :class:`RecommendResponse` wraps the planner's
  :class:`~repro.core.planner.RecommendationResult` with
  :class:`ResultProvenance` — which backend and batch produced it, which
  shard and worker process served it, whether it was a warm truth-store hit,
  and the batch's planning/execution/merge timings;
* :class:`Ticket` is the handle ``submit`` returns and ``results`` consumes;
* :class:`ServingBackend` is the pluggable execution strategy — the service
  owns ordering, envelopes and lifecycle, a backend owns *how* one batch of
  queries becomes ordered results (and parent planner state);
* :class:`WindowBatch` + :meth:`ServingBackend.execute_window` are the
  cross-batch pipelining surface: the service hands the backend a rolling
  window of consecutive pending batches, the backend returns the merged
  prefix of their executions (merges strictly in submission order, each
  stamped with its ``truth_span`` for per-batch journaling).  The default
  implementation is the per-batch barrier; the pooled backend overrides it
  with the DAG-walking dispatcher in :mod:`repro.serving.service`, whose
  shard-level dependency analysis lives in :mod:`repro.serving.pipeline`.

The module also hosts the serving layer's two comparison/wire primitives:

* :func:`recommendation_fingerprint`, the canonical comparable form of a
  result used everywhere the bit-identical-to-sequential contract is
  asserted;
* the columnar **truth wire codec** — :func:`encode_truth_delta` /
  :class:`TruthDeltaBlock` — which ships parent→worker truth deltas as flat
  index arrays (endpoints as road-network node indices, paths as one
  concatenated node-index array with CSR offsets, enum-like string fields
  dictionary-encoded) instead of pickled
  :class:`~repro.core.truth.VerifiedTruth` object trees.  The decode is
  exact: every reconstructed truth compares equal to the original.
"""

from __future__ import annotations

import abc
import pickle
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.evaluation import EvaluationOutcome
from ..core.planner import CrowdPlanner, RecommendationResult, ShardPlan
from ..core.task import TaskResult
from ..core.truth import VerifiedTruth
from ..roadnet.graph import RoadNetwork
from ..routing.base import CandidateRoute, RouteQuery
from ..spatial import Point
from .metrics import Counters


@dataclass(frozen=True)
class RecommendRequest:
    """One route-recommendation request as the service tracks it."""

    request_id: int
    query: RouteQuery

    @property
    def origin(self) -> int:
        return self.query.origin

    @property
    def destination(self) -> int:
        return self.query.destination


def wrap_requests(
    queries: Iterable[Union[RouteQuery, RecommendRequest]], start_id: int
) -> List[RecommendRequest]:
    """Envelope raw queries (ids issued from ``start_id``); pre-built
    envelopes are re-issued under the service's id sequence so ids stay
    unique per service."""
    requests = []
    for offset, query in enumerate(queries):
        if isinstance(query, RecommendRequest):
            query = query.query
        requests.append(RecommendRequest(request_id=start_id + offset, query=query))
    return requests


@dataclass(frozen=True)
class BatchTimings:
    """Wall-clock breakdown of the batch a response belonged to."""

    plan_s: float
    execute_s: float
    merge_s: float

    @property
    def total_s(self) -> float:
        return self.plan_s + self.execute_s + self.merge_s


@dataclass(frozen=True)
class ResultProvenance:
    """Where and how a response was produced.

    ``shard_id``/``worker_pid`` identify the shard and OS process that served
    the request (``shard_id`` is ``None`` for the inline backend, which does
    not shard; ``worker_pid`` is the serving process — the parent's own pid
    when no pool worker was involved).  ``warm_pool`` records whether the
    batch ran on an already-forked pool (the amortisation the persistent
    backend exists for), and ``truth_reused`` whether the answer came
    straight from the verified-truth store.

    ``resubmitted`` marks a result whose shard was re-executed after the
    supervisor declared its original worker dead mid-batch (``worker_pid``
    is the process that actually produced the result), and
    ``respawn_count`` is how many workers the supervisor re-forked during
    this response's batch — both zero/false on a fault-free run.
    """

    backend: str
    batch_id: int
    batch_size: int
    shard_id: Optional[int]
    worker_pid: Optional[int]
    truth_reused: bool
    warm_pool: bool
    timings: BatchTimings
    resubmitted: bool = False
    respawn_count: int = 0


@dataclass(frozen=True)
class RecommendResponse:
    """One answered request: the planner's result plus provenance."""

    request: RecommendRequest
    result: RecommendationResult
    provenance: ResultProvenance

    @property
    def query(self) -> RouteQuery:
        return self.request.query

    @property
    def route(self) -> CandidateRoute:
        return self.result.route

    @property
    def method(self) -> str:
        return self.result.method

    @property
    def confidence(self) -> float:
        return self.result.confidence


@dataclass(frozen=True)
class Ticket:
    """Handle for a submitted batch; redeem once with ``Service.results``."""

    ticket_id: int
    size: int


@dataclass
class BatchExecution:
    """What a backend hands back for one executed batch.

    ``results`` are in submission order; ``origins`` pairs each result with
    its ``(shard_id, worker_pid)``; the parent planner's post-batch state has
    already been brought up to date (that is part of the backend contract).
    """

    results: List[RecommendationResult]
    origins: List[Tuple[Optional[int], Optional[int]]]
    plan_s: float = 0.0
    execute_s: float = 0.0
    merge_s: float = 0.0
    warm_pool: bool = False
    #: Per-result flag: the result's shard was resubmitted after its worker
    #: was declared dead mid-batch (``None`` ≡ all ``False``).
    resubmitted: Optional[List[bool]] = None
    #: Workers re-forked by the supervisor while this batch executed.
    respawn_count: int = 0
    #: ``(before, after)`` parent truth cursors around this batch's merge —
    #: recorded by :meth:`ServingBackend.execute_window` so the service can
    #: journal each batch's own truth delta even when several batches merged
    #: inside one window call.  ``None`` on the plain ``execute_batch`` path,
    #: where the caller brackets the cursors itself.
    truth_span: Optional[Tuple[int, int]] = None


@dataclass
class WindowBatch:
    """One submitted batch inside a pipeline window, backend-ready.

    The service hands the backend a *window* — up to
    ``ServiceConfig.pipeline_window`` consecutive pending batches — as a list
    of these; the backend executes them with submission-order merge semantics
    (see :meth:`ServingBackend.execute_window`).
    """

    queries: List[RouteQuery]
    share_candidate_generation: bool = True


class ServingBackend(abc.ABC):
    """Execution strategy of the recommendation service.

    A backend is bound to exactly one planner (by
    :meth:`RecommendationService.__init__` via :meth:`bind`) and must keep
    the service contract: for any batch sequence, results and post-batch
    planner state are identical to the planner answering the same queries
    sequentially in submission order.
    """

    #: Name recorded in every response's provenance.
    name: str = "backend"
    #: The tenant whose share of :attr:`counters` this backend's statistics
    #: report; ``None`` reports the sum over every tenant.
    tenant: Optional[str] = None

    def __init__(self) -> None:
        self.planner: Optional[CrowdPlanner] = None
        #: Supervision, pipelining, sharding and hedging counters (see
        #: :mod:`repro.serving.metrics`); an in-process backend never
        #: records any, so its statistics are the schema's zeros.
        self.counters = Counters()

    def bind(self, planner: CrowdPlanner) -> None:
        """Attach the backend to the planner it will serve (idempotent)."""
        self.planner = planner

    @abc.abstractmethod
    def execute_batch(
        self,
        queries: Sequence[RouteQuery],
        share_candidate_generation: bool = True,
        plan: Optional[ShardPlan] = None,
    ) -> BatchExecution:
        """Answer one batch in submission order and update the parent planner."""

    def execute_window(self, batches: Sequence[WindowBatch]) -> List[BatchExecution]:
        """Execute a window of consecutive batches; return the merged prefix.

        The default implementation is the barrier scheduler: each batch runs
        through :meth:`execute_batch` in submission order, one at a time —
        byte-for-byte the behaviour of calling the service without a window.
        Backends that can overlap batches (the pooled backend's DAG
        dispatcher) override this, but every override must keep the window
        contract:

        * batches **merge strictly in submission order** — the parent
          planner's state after the call is exactly the sequential prefix;
        * each returned execution carries ``truth_span``, the parent truth
          cursors bracketing that batch's merge, so the caller can journal
          per-batch deltas;
        * on a mid-window failure the successfully merged *prefix* is
          returned (the failing batch and everything after stay unexecuted —
          the caller keeps them pending and the failure surfaces
          deterministically when the failing batch is retried at the head of
          a later window); only a failure of the **first** batch raises.
        """
        planner = self.planner
        executions: List[BatchExecution] = []
        for batch in batches:
            before = planner.truth_cursor() if planner is not None else 0
            try:
                execution = self.execute_batch(
                    batch.queries, share_candidate_generation=batch.share_candidate_generation
                )
            except Exception:
                if executions:
                    break
                raise
            after = planner.truth_cursor() if planner is not None else 0
            execution.truth_span = (before, after)
            executions.append(execution)
        return executions

    def worker_pids(self) -> List[int]:
        """PIDs of live pool workers (empty for in-process backends)."""
        return []

    def close(self) -> None:
        """Release any long-lived resources (idempotent)."""


# --------------------------------------------------------------- comparison
def _route_fingerprint(route: Optional[CandidateRoute]):
    if route is None:
        return None
    return (route.path, route.source, route.support, tuple(sorted(route.metadata.items())))


def _evaluation_fingerprint(evaluation: Optional[EvaluationOutcome]):
    if evaluation is None:
        return None
    return (
        evaluation.decision.value,
        _route_fingerprint(evaluation.best_route),
        tuple(sorted(evaluation.confidences.items())),
        evaluation.mean_pairwise_similarity,
    )


def _task_result_fingerprint(task_result: Optional[TaskResult]):
    if task_result is None:
        return None
    return (
        task_result.winning_route_index,
        task_result.confidence,
        task_result.stopped_early,
        tuple(sorted(task_result.votes.items())),
        tuple(
            (
                response.worker_id,
                response.chosen_route_index,
                response.total_response_time_s,
                tuple(
                    (answer.worker_id, answer.landmark_id, answer.says_yes, answer.response_time_s)
                    for answer in response.answers
                ),
            )
            for response in task_result.responses
        ),
    )


def recommendation_fingerprint(result: RecommendationResult):
    """Canonical, comparable form of a recommendation result.

    Captures every externally observable part of the answer — query, route,
    resolution method, confidence, candidate set, evaluation outcome and the
    full crowd task result down to individual answers and response times —
    while excluding process-local serial numbers (task ids), which are the
    only field where a sharded run may differ from the sequential oracle.
    """
    query = result.query
    return (
        (query.origin, query.destination, query.departure_time_s, query.max_response_time_s),
        _route_fingerprint(result.route),
        result.method,
        result.confidence,
        tuple(_route_fingerprint(candidate) for candidate in result.candidates),
        _evaluation_fingerprint(result.evaluation),
        _task_result_fingerprint(result.task_result),
    )


def response_fingerprint(response: RecommendResponse):
    """Fingerprint of the result inside a service response envelope."""
    return recommendation_fingerprint(response.result)


# ----------------------------------------------------------- truth wire codec
class TruthDeltaBlock:
    """A truth delta as flat index arrays — the columnar wire format.

    One row per truth, in delta (= parent record) order:

    * ``origin_index``/``destination_index`` — the endpoint's road-network
      *node index* (truth endpoints are node locations by construction;
      the rare off-node endpoint is carried verbatim in
      ``origin_overrides``/``destination_overrides`` with ``-1`` in the
      index column);
    * ``path_nodes``/``path_offsets`` — every route path concatenated into
      one node-id array with CSR offsets;
    * ``confidence_codes``/``verified_by_codes``/``source_codes`` —
      dictionary-encoded against per-block vocabularies (confidences and the
      enum-like strings repeat heavily across a delta);
    * ``meta_key_codes``/``meta_values``/``meta_offsets`` — route metadata
      flattened into key-code + float-value columns (a row with non-float
      metadata values is carried verbatim in ``irregular_meta``);
    * ``truth_ids``/``time_slots``/``supports`` — plain columns.

    On the wire (``__getstate__``) the arrays are packed into a single
    zlib-compressed buffer, so ``pickle.dumps(block)`` is a fraction of the
    pickled object list — path payloads dominate large deltas and node-index
    arrays compress far better than nested ``VerifiedTruth`` object trees.
    :meth:`decode_truths` reconstructs the exact original truths (the
    round-trip is equality-preserving field for field);
    :meth:`~repro.core.truth.TruthDatabase.adopt_all` accepts a block
    directly and decodes it against its own network.
    """

    _COLUMNS = (
        "truth_ids",
        "origin_index",
        "destination_index",
        "time_slots",
        "confidence_codes",
        "verified_by_codes",
        "source_codes",
        "supports",
        "path_offsets",
        "path_nodes",
        "meta_offsets",
        "meta_key_codes",
        "meta_values",
    )

    __slots__ = _COLUMNS + (
        "confidence_vocab",
        "verified_by_vocab",
        "source_vocab",
        "meta_key_vocab",
        "origin_overrides",
        "destination_overrides",
        "irregular_meta",
        # The workspace this delta belongs to ("" = the default tenant).
        # Rides the wire envelope so a pool worker can adopt the rows into
        # the matching per-tenant warm truth base without trusting message
        # framing alone.
        "tenant",
    )

    def __len__(self) -> int:
        return len(self.truth_ids)

    # ------------------------------------------------------------------ wire
    def __getstate__(self):
        schema = []
        parts = []
        for name in self._COLUMNS:
            column = getattr(self, name)
            schema.append((name, column.dtype.str, len(column)))
            parts.append(column.tobytes())
        # Level 1 already collapses the index-array redundancy (sequential
        # ids, clustered node indices, repeated codes); higher levels buy a
        # few percent for several times the CPU on the dispatch path.
        return {
            "schema": tuple(schema),
            "blob": zlib.compress(b"".join(parts), 1),
            "confidence_vocab": self.confidence_vocab,
            "verified_by_vocab": self.verified_by_vocab,
            "source_vocab": self.source_vocab,
            "meta_key_vocab": self.meta_key_vocab,
            "origin_overrides": self.origin_overrides,
            "destination_overrides": self.destination_overrides,
            "irregular_meta": self.irregular_meta,
            "tenant": self.tenant,
        }

    def __setstate__(self, state) -> None:
        buffer = zlib.decompress(state["blob"])
        offset = 0
        for name, dtype_str, length in state["schema"]:
            dtype = np.dtype(dtype_str)
            column = np.frombuffer(buffer, dtype=dtype, count=length, offset=offset)
            offset += length * dtype.itemsize
            object.__setattr__(self, name, column)
        for name in (
            "confidence_vocab",
            "verified_by_vocab",
            "source_vocab",
            "meta_key_vocab",
            "origin_overrides",
            "destination_overrides",
            "irregular_meta",
        ):
            object.__setattr__(self, name, state[name])
        # Blocks serialised before the tenancy subsystem carry no tag.
        object.__setattr__(self, "tenant", state.get("tenant", ""))

    def wire_bytes(self) -> int:
        """Size of this block as it crosses the worker pipe (pickled)."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))

    # ---------------------------------------------------------------- decode
    def decode_truths(self, network: RoadNetwork) -> List[VerifiedTruth]:
        """Reconstruct the delta as :class:`VerifiedTruth` objects.

        ``network`` resolves node indices back to locations; pool workers
        pass their fork-inherited network (identical to the encoder's), so
        every coordinate comes back bit-exact.
        """
        compiled = network.compiled()
        xs, ys = compiled.xs, compiled.ys
        truth_ids = self.truth_ids.tolist()
        origin_index = self.origin_index.tolist()
        destination_index = self.destination_index.tolist()
        time_slots = self.time_slots.tolist()
        confidences = [self.confidence_vocab[code] for code in self.confidence_codes.tolist()]
        verified_bys = [self.verified_by_vocab[code] for code in self.verified_by_codes.tolist()]
        sources = [self.source_vocab[code] for code in self.source_codes.tolist()]
        supports = self.supports.tolist()
        path_offsets = self.path_offsets.tolist()
        path_nodes = self.path_nodes.tolist()
        meta_offsets = self.meta_offsets.tolist()
        meta_keys = [self.meta_key_vocab[code] for code in self.meta_key_codes.tolist()]
        meta_values = self.meta_values.tolist()

        # Truth endpoints cluster on hot nodes: build each node's Point once.
        points: Dict[int, Point] = {}

        def point_at(index: int, overrides: Dict[int, Tuple[float, float]], row: int) -> Point:
            if index < 0:
                return Point(*overrides[row])
            point = points.get(index)
            if point is None:
                point = Point(xs[index], ys[index])
                points[index] = point
            return point

        new_route = CandidateRoute.__new__
        set_field = object.__setattr__
        truths = []
        for row in range(len(truth_ids)):
            origin = point_at(origin_index[row], self.origin_overrides, row)
            destination = point_at(destination_index[row], self.destination_overrides, row)
            irregular = self.irregular_meta.get(row)
            if irregular is not None:
                metadata = dict(irregular)
            else:
                metadata = {
                    meta_keys[position]: meta_values[position]
                    for position in range(meta_offsets[row], meta_offsets[row + 1])
                }
            # Encoded routes were validated at record time, so the decoder
            # rebuilds them the way pickle would — fields set directly,
            # skipping the constructor's re-validation and copies.
            route = new_route(CandidateRoute)
            set_field(route, "path", tuple(path_nodes[path_offsets[row]:path_offsets[row + 1]]))
            set_field(route, "source", sources[row])
            set_field(route, "support", supports[row])
            set_field(route, "metadata", metadata)
            set_field(route, "_edge_signature", None)
            truths.append(
                VerifiedTruth(
                    truth_id=truth_ids[row],
                    origin=origin,
                    destination=destination,
                    time_slot=time_slots[row],
                    route=route,
                    verified_by=verified_bys[row],
                    confidence=confidences[row],
                )
            )
        return truths


def _int_dtype_for(maximum: int):
    """Smallest of int32/int64 covering ``maximum`` (node/truth ids)."""
    return np.int32 if maximum < 2**31 else np.int64


def encode_truth_delta(
    truths: Sequence[VerifiedTruth], network: RoadNetwork, tenant: str = ""
) -> TruthDeltaBlock:
    """Encode a truth delta into its columnar wire form.

    ``network`` must be the store's road network — endpoints are looked up in
    its compiled location index so they travel as node indices.  The
    function is total: endpoints off the network and non-float metadata fall
    back to small per-row override tables instead of failing, so any delta a
    :class:`~repro.core.truth.TruthDatabase` can hold is encodable.
    ``tenant`` tags the block with its workspace (``""`` = default tenant).
    """
    location_index = network.compiled().node_index_by_location()
    block = TruthDeltaBlock.__new__(TruthDeltaBlock)
    block.tenant = tenant

    truth_ids: List[int] = []
    origin_index: List[int] = []
    destination_index: List[int] = []
    time_slots: List[int] = []
    confidence_codes: List[int] = []
    verified_by_codes: List[int] = []
    source_codes: List[int] = []
    supports: List[int] = []
    path_offsets: List[int] = [0]
    path_nodes: List[int] = []
    meta_offsets: List[int] = [0]
    meta_key_codes: List[int] = []
    meta_values: List[float] = []

    confidence_vocab: Dict[float, int] = {}
    verified_by_vocab: Dict[str, int] = {}
    source_vocab: Dict[str, int] = {}
    meta_key_vocab: Dict[str, int] = {}
    origin_overrides: Dict[int, Tuple[float, float]] = {}
    destination_overrides: Dict[int, Tuple[float, float]] = {}
    irregular_meta: Dict[int, Tuple] = {}

    for row, truth in enumerate(truths):
        truth_ids.append(truth.truth_id)
        index = location_index.get((truth.origin.x, truth.origin.y), -1)
        if index < 0:
            origin_overrides[row] = (truth.origin.x, truth.origin.y)
        origin_index.append(index)
        index = location_index.get((truth.destination.x, truth.destination.y), -1)
        if index < 0:
            destination_overrides[row] = (truth.destination.x, truth.destination.y)
        destination_index.append(index)
        time_slots.append(truth.time_slot)
        code = confidence_vocab.setdefault(truth.confidence, len(confidence_vocab))
        confidence_codes.append(code)
        code = verified_by_vocab.setdefault(truth.verified_by, len(verified_by_vocab))
        verified_by_codes.append(code)
        route = truth.route
        code = source_vocab.setdefault(route.source, len(source_vocab))
        source_codes.append(code)
        supports.append(route.support)
        path_nodes.extend(route.path)
        path_offsets.append(len(path_nodes))
        metadata = route.metadata
        if all(type(value) is float for value in metadata.values()):
            for key, value in metadata.items():
                meta_key_codes.append(meta_key_vocab.setdefault(key, len(meta_key_vocab)))
                meta_values.append(value)
        else:
            irregular_meta[row] = tuple(metadata.items())
        meta_offsets.append(len(meta_key_codes))

    id_dtype = _int_dtype_for(max(truth_ids, default=0))
    node_dtype = _int_dtype_for(max(path_nodes, default=0))
    block.truth_ids = np.array(truth_ids, dtype=id_dtype)
    block.origin_index = np.array(origin_index, dtype=np.int32)
    block.destination_index = np.array(destination_index, dtype=np.int32)
    block.time_slots = np.array(time_slots, dtype=np.int32)
    block.confidence_codes = np.array(confidence_codes, dtype=np.int32)
    block.verified_by_codes = np.array(verified_by_codes, dtype=np.int32)
    block.source_codes = np.array(source_codes, dtype=np.int32)
    block.supports = np.array(supports, dtype=np.int64)
    block.path_offsets = np.array(path_offsets, dtype=np.int64)
    block.path_nodes = np.array(path_nodes, dtype=node_dtype)
    block.meta_offsets = np.array(meta_offsets, dtype=np.int64)
    block.meta_key_codes = np.array(meta_key_codes, dtype=np.int32)
    block.meta_values = np.array(meta_values, dtype=np.float64)
    block.confidence_vocab = tuple(confidence_vocab)
    block.verified_by_vocab = tuple(verified_by_vocab)
    block.source_vocab = tuple(source_vocab)
    block.meta_key_vocab = tuple(meta_key_vocab)
    block.origin_overrides = origin_overrides
    block.destination_overrides = destination_overrides
    block.irregular_meta = irregular_meta
    return block
