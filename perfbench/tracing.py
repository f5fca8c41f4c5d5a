"""Span recording around the public entry points of each layer.

The traced run wraps functions from the benchmark's own code, so nothing
under ``src/`` changes.  A wrapper records one span per call: its name,
start, end, parent span and query id.  Every wrapped function is
synchronous, so the spans of one process nest strictly and a plain stack
gives each span its parent.  A span's self time is its duration minus the
durations of its wrapped children; the children of a synchronous call
never overlap, so that sum is the time they cover.

Spans are kept in memory in flat arrays (a 4,000-peer simulator round
makes hundreds of thousands of them) and written to one JSON file by
:meth:`Recorder.dump`.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional

_WRAPPED_MARK = "__perfbench_span__"


class Recorder:
    """In-memory span store plus per-name call, time and self-time totals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span and total.  Call only between wrapped calls:
        every wrapped function is synchronous, so the loop that calls
        this never runs inside one."""
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_query = array("q")
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: extra per-name sums, such as encoded bytes
        self.amounts: Dict[str, float] = {}
        #: open spans: [span index, child seconds, query id]
        self._stack: List[List[Any]] = []

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(
        self,
        function: Callable,
        name: str,
        query_of: Optional[Callable[[tuple, Any], int]] = None,
        amount_of: Optional[Callable[[Any], float]] = None,
    ) -> Callable:
        """A span-recording wrapper around ``function``.

        ``query_of(args, result)`` names the query a span belongs to; it
        is asked at entry (``result`` None) so children inherit the id,
        and again at exit when it had no answer.  Other spans inherit
        their parent's query.  ``amount_of(result)`` adds to
        a per-name sum, such as the bytes an encoder produced.
        """
        name_id = self.name_id(name)
        clock = time.perf_counter
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack
            parent = stack[-1] if stack else None
            query = query_of(args, None) if query_of is not None else None
            if query is None:
                query = parent[2] if parent else -1
            frame = [len(recorder.span_start), 0.0, query]
            # Reserve the slot now so children see their parent's index.
            recorder.span_name.append(name_id)
            recorder.span_start.append(0.0)
            recorder.span_end.append(0.0)
            recorder.span_parent.append(parent[0] if parent else -1)
            recorder.span_query.append(frame[2])
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                index = frame[0]
                duration = end - start
                recorder.span_start[index] = start
                recorder.span_end[index] = end
                if query_of is not None and frame[2] == -1:
                    late = query_of(args, result)
                    if late is not None:
                        recorder.span_query[index] = late
                recorder.calls[name] = recorder.calls.get(name, 0) + 1
                recorder.total_s[name] = recorder.total_s.get(name, 0.0) + duration
                recorder.self_s[name] = recorder.self_s.get(name, 0.0) + duration - frame[1]
                if amount_of is not None and result is not None:
                    recorder.amounts[name] = recorder.amounts.get(name, 0.0) + amount_of(result)
                if stack:
                    stack[-1][1] += duration

        setattr(wrapper, _WRAPPED_MARK, name)
        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(function, "__name__", name)
        wrapper.__doc__ = getattr(function, "__doc__", None)
        return wrapper

    def wrap_method(self, owner: type, attribute: str, name: str, **options: Any) -> None:
        """Replace ``owner.attribute`` (a function, or a classmethod) once."""
        current = owner.__dict__[attribute]
        if isinstance(current, classmethod):
            if hasattr(current.__func__, _WRAPPED_MARK):
                return
            setattr(owner, attribute, classmethod(self.wrap(current.__func__, name, **options)))
            return
        if hasattr(current, _WRAPPED_MARK):
            return
        setattr(owner, attribute, self.wrap(current, name, **options))

    def wrap_function(
        self, home: Any, attribute: str, name: str, importers: Iterable[Any] = (), **options: Any
    ) -> None:
        """Wrap a module-level function once and rebind that one wrapper in
        every module that imported the name by value."""
        original = getattr(home, attribute)
        if hasattr(original, _WRAPPED_MARK):
            return
        wrapper = self.wrap(original, name, **options)
        setattr(home, attribute, wrapper)
        for module in importers:
            if getattr(module, attribute, None) is original:
                setattr(module, attribute, wrapper)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, total_s, self_s, amount}}`` for every name seen."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s.get(name, 0.0),
                "self_s": self.self_s.get(name, 0.0),
                "amount": self.amounts.get(name, 0.0),
            }
            for name in self.calls
        }

    def dump(self, path: str) -> int:
        """Write every recorded span to ``path`` as columnar JSON; returns
        the span count.  Times are integer nanoseconds from the first
        span's start."""
        count = len(self.span_start)
        origin = min(self.span_start) if count else 0.0
        payload = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "query"],
            "name": list(self.span_name),
            "start_ns": [round((value - origin) * 1e9) for value in self.span_start],
            "end_ns": [round((value - origin) * 1e9) for value in self.span_end],
            "parent": list(self.span_parent),
            "query": list(self.span_query),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        return count


def _message_query(args: tuple, result: Any) -> Optional[int]:
    message = args[-1]
    query = getattr(message, "query_id", None)
    if not isinstance(query, int):
        return None
    return 2 * query + (message.kind == "mira")


def _started_query(args: tuple, result: Any) -> Optional[int]:
    query = getattr(result, "query_id", None)
    if query is None:
        return None
    return 2 * query + (args[0].message_kind == "mira")


def install_core(recorder: Recorder) -> None:
    """Wrap naming, routing, executor and simulator entry points.

    Must run before the system is built: executors bind
    ``out_neighbors_view`` and the namers memoise ``label_for_value`` as
    bound methods at construction time.

    ``ResumableExecutor.handle_message`` delegates to ``_dispatch``, and
    the simulator's overlay calls ``_dispatch`` directly through each
    message's handler hook, so the ``core.handle_message`` span sits on
    ``_dispatch`` to see every delivered message on both runtimes.
    """
    from repro.core.mira import MiraExecutor
    from repro.core.partition_tree import PartitionTree
    from repro.core.pira import PiraExecutor
    from repro.core.resumable import ResumableExecutor
    from repro.fissione.network import FissioneNetwork

    recorder.wrap_method(PartitionTree, "label_for_value", "core.label_for_value")
    recorder.wrap_method(FissioneNetwork, "owner_id", "fissione.owner_id")
    recorder.wrap_method(FissioneNetwork, "out_neighbors_view", "fissione.out_neighbors")
    recorder.wrap_method(FissioneNetwork, "build", "fissione.build")
    recorder.wrap_method(PiraExecutor, "start", "core.start", query_of=_started_query)
    recorder.wrap_method(MiraExecutor, "start", "core.start", query_of=_started_query)
    recorder.wrap_method(
        ResumableExecutor, "_dispatch", "core.handle_message", query_of=_message_query
    )


def install_runtime(recorder: Recorder) -> None:
    """Wrap the codec, transport, storage and gossip entry points of the
    live runtime (call before the cluster is built)."""
    import repro.api.live as api_live
    import repro.runtime.cluster as cluster
    import repro.runtime.gateway as gateway
    import repro.runtime.node as node
    import repro.runtime.protocol as protocol
    import repro.runtime.storenode as storenode
    import repro.runtime.transport as transport
    from repro.gossip.swim import SwimNode
    from repro.storage.base import Store

    importers = (api_live, cluster, gateway, node, storenode, transport)
    recorder.wrap_function(
        protocol, "encode_frame", "runtime.encode_frame", importers, amount_of=len
    )
    recorder.wrap_function(protocol, "decode_frame", "runtime.decode_frame", importers)
    recorder.wrap_function(protocol, "message_to_wire", "runtime.message_to_wire", importers)
    recorder.wrap_function(protocol, "wire_to_message", "runtime.wire_to_message", importers)
    recorder.wrap_method(transport.AsyncioTransport, "send", "runtime.transport_send")
    recorder.wrap_method(Store, "put", "storage.put")
    recorder.wrap_method(Store, "put_replica", "storage.put")
    recorder.wrap_method(Store, "sync", "storage.sync")
    # Durable backends override sync; wrap each override too.
    for backend in _store_subclasses(Store):
        if "sync" in backend.__dict__:
            recorder.wrap_method(backend, "sync", "storage.sync")
    recorder.wrap_method(SwimNode, "handle_frame", "gossip.handle_frame")


def _store_subclasses(base: type) -> List[type]:
    import repro.storage  # noqa: F401  (registers every backend)

    found: List[type] = []
    pending = list(base.__subclasses__())
    while pending:
        backend = pending.pop()
        found.append(backend)
        pending.extend(backend.__subclasses__())
    return found


def per_call_us(totals: Dict[str, Dict[str, float]], *names: str, key: str = "total_s") -> float:
    """Mean microseconds per call over ``names`` (0 when never called)."""
    calls = sum(totals.get(name, {}).get("calls", 0) for name in names)
    seconds = sum(totals.get(name, {}).get(key, 0.0) for name in names)
    return seconds * 1e6 / calls if calls else 0.0


def calls_of(totals: Dict[str, Dict[str, float]], name: str) -> int:
    return int(totals.get(name, {}).get("calls", 0))
