"""Per-layer spans for the traced run, recorded from outside the program.

The program has no span API of its own yet, so the traced run wraps the
entry function of each layer (class attributes and module functions)
for the length of a traced cycle and restores the originals afterwards.
Nothing here changes what a call does; it only notes when it started
and ended, in which layer, and under which span.

One client action is one trace.  The span that is current travels with
the work:

* inside a task or thread, through a context variable;
* across the TCP hop, through the client connection's local port: the
  client notes its current span (or none) under that port before every
  request, and the server's connection task looks the span up by its
  peer port (the frame itself is left untouched, so byte counts are
  the untraced ones);
* across the hop to the shard thread, through ``ShardWorker.submit``,
  whose wrapper hands the job a span of its own, parented to the
  submitting span.

Spans are kept in memory and written out when the run ends.  A layer's
self time is its spans' durations minus the part of each interval that
its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from dataclasses import dataclass

from repro.cluster import protocol
from repro.cluster.router import ClusterClient, ClusterServer, Router
from repro.cluster.shard import ShardWorker
from repro.core.api import MultiTenantDatabase
from repro.engine.btree import BTreeIndex
from repro.engine.database import Database
from repro.engine.durability.manager import DurabilityManager
from repro.engine.durability.wal import WriteAheadLog
from repro.engine.optimizer import Planner
from repro.engine.sql import ast

_WRITES = (ast.Insert, ast.Update, ast.Delete)


@dataclass
class Span:
    trace: int
    span_id: int
    parent: int | None
    layer: str
    name: str
    start_ns: int
    end_ns: int = 0
    #: The shard name of a shard job; ``"w"`` on an MT call that writes.
    tag: str = ""
    #: Bytes produced, for spans that encode a frame.
    size: int = 0


#: The span the running code works under (per task, per thread).
_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: In a server connection task: the peer (client) port it serves.
_CONN_PORT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_conn_port", default=None
)


class Tracer:
    """Records spans while installed; derives per-layer figures."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        #: client port -> the span its current request belongs to.
        self._port_span: dict[int, Span | None] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.installed = False

    # -- span bookkeeping ----------------------------------------------------

    def _parent(self) -> Span | None:
        span = _CURRENT.get()
        if span is None:
            port = _CONN_PORT.get()
            if port is not None:
                span = self._port_span.get(port)
        return span

    def _open(self, parent: Span, layer: str, name: str, tag: str = "") -> Span:
        return Span(
            parent.trace,
            next(self._ids),
            parent.span_id,
            layer,
            name,
            time.perf_counter_ns(),
            tag=tag,
        )

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self.spans.append(span)

    def begin_action(self, name: str) -> tuple[Span, contextvars.Token]:
        """Open the root span of one client action (a new trace)."""
        span_id = next(self._ids)
        span = Span(span_id, span_id, None, "client", name, time.perf_counter_ns())
        return span, _CURRENT.set(span)

    def end_action(self, span: Span, token: contextvars.Token) -> None:
        _CURRENT.reset(token)
        self._close(span)

    # -- wrappers ------------------------------------------------------------

    def _sync(self, layer: str, name: str, orig, tag_of=None, size_of=None):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = tracer._parent()
            # Untraced work, or a re-entrant call inside the same layer
            # (the outermost call already covers it).
            if parent is None or parent.layer == layer:
                return orig(*args, **kwargs)
            tag = tag_of(args) if tag_of is not None else ""
            span = tracer._open(parent, layer, name, tag)
            token = _CURRENT.set(span)
            try:
                result = orig(*args, **kwargs)
                if size_of is not None:
                    span.size = size_of(result)
                return result
            finally:
                _CURRENT.reset(token)
                tracer._close(span)

        return wrapper

    def _async(self, layer: str, name: str, orig):
        tracer = self

        @functools.wraps(orig)
        async def wrapper(*args, **kwargs):
            parent = tracer._parent()
            if parent is None or parent.layer == layer:
                return await orig(*args, **kwargs)
            span = tracer._open(parent, layer, name)
            token = _CURRENT.set(span)
            try:
                return await orig(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                tracer._close(span)

        return wrapper

    def _submit(self, orig):
        """``ShardWorker.submit``: a ``submit`` span on the loop (queue
        wait + run + hand-back) and a ``job`` span on the shard thread."""
        tracer = self

        @functools.wraps(orig)
        async def wrapper(shard, fn, *args, **kwargs):
            parent = tracer._parent()
            if parent is None:
                return await orig(shard, fn, *args, **kwargs)
            submit = tracer._open(parent, "shard", "submit")

            def job(*a, **k):
                span = tracer._open(submit, "shard", "job", shard.name)
                token = _CURRENT.set(span)
                try:
                    return fn(*a, **k)
                finally:
                    _CURRENT.reset(token)
                    tracer._close(span)

            token = _CURRENT.set(submit)
            try:
                return await orig(shard, job, *args, **kwargs)
            finally:
                _CURRENT.reset(token)
                tracer._close(submit)

        return wrapper

    def _client_request(self, orig):
        tracer = self

        @functools.wraps(orig)
        async def wrapper(client, message):
            if client._writer is not None:
                port = client._writer.get_extra_info("sockname")[1]
                tracer._port_span[port] = _CURRENT.get()
            return await orig(client, message)

        return wrapper

    def _serve_connection(self, orig):
        @functools.wraps(orig)
        async def wrapper(server, reader, writer):
            _CONN_PORT.set(writer.get_extra_info("peername")[1])
            return await orig(server, reader, writer)

        return wrapper

    def track_connections(self) -> None:
        """Link each request to the span it was sent under, for the
        whole run.

        Server connection tasks remember their client's port, and every
        client request notes its span (``None`` outside a traced
        action) under its port, so a request never inherits the span
        of an earlier one.  ``asyncio.start_server`` binds the handler
        when the server starts, so these wrappers are installed before
        it starts and stay; they only set a context variable and a
        dict entry.
        """
        self._connection_patches = [
            (ClusterServer, "_serve_connection", ClusterServer._serve_connection),
            (ClusterClient, "request", ClusterClient.request),
        ]
        ClusterServer._serve_connection = self._serve_connection(
            ClusterServer._serve_connection
        )
        ClusterClient.request = self._client_request(ClusterClient.request)

    def untrack_connections(self) -> None:
        for owner, attr, orig in self._connection_patches:
            setattr(owner, attr, orig)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer's entry functions."""
        if self.installed:
            return
        sync, asyn = self._sync, self._async
        self._patch(
            protocol,
            "encode_frame",
            sync("protocol", "encode", protocol.encode_frame, size_of=len),
        )
        self._patch(
            protocol,
            "decode_frame",
            sync("protocol", "decode", protocol.decode_frame),
        )
        self._patch(
            ClusterServer,
            "_dispatch",
            asyn("router", "dispatch", ClusterServer._dispatch),
        )
        self._patch(Router, "_routed", asyn("router", "routed", Router._routed))
        self._patch(ShardWorker, "submit", self._submit(ShardWorker.submit))
        self._patch(
            MultiTenantDatabase,
            "_execute_parsed",
            sync(
                "mt",
                "execute",
                MultiTenantDatabase._execute_parsed,
                lambda args: "w" if isinstance(args[3], _WRITES) else "",
            ),
        )
        self._patch(
            MultiTenantDatabase,
            "insert",
            sync("mt", "insert", MultiTenantDatabase.insert, lambda args: "w"),
        )
        self._patch(
            MultiTenantDatabase,
            "execute_cross",
            sync("mt", "execute_cross", MultiTenantDatabase.execute_cross),
        )
        self._patch(Planner, "plan_select", sync("plan", "plan", Planner.plan_select))
        self._patch(
            Database, "execute_ast", sync("exec", "execute_ast", Database.execute_ast)
        )
        self._patch(
            Database,
            "_execute_prepared",
            sync("exec", "execute_prepared", Database._execute_prepared),
        )
        self._patch(BTreeIndex, "insert", sync("btree", "insert", BTreeIndex.insert))
        self._patch(
            WriteAheadLog, "flush", sync("wal", "flush", WriteAheadLog.flush)
        )
        self._patch(
            DurabilityManager,
            "checkpoint",
            sync("checkpoint", "checkpoint", DurabilityManager.checkpoint),
        )
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.installed = False

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON array per line: trace, span id,
        parent id, layer, name, start and end (ns), tag, bytes."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        [s.trace, s.span_id, s.parent, s.layer, s.name,
                         s.start_ns, s.end_ns, s.tag, s.size]
                    )
                )
                out.write("\n")


class CallTimer:
    """Times every call of one function while installed, traced or not
    (for rare calls that a traced cycle may miss)."""

    def __init__(self, owner, attr: str) -> None:
        self.durations_ns: list[int] = []
        orig = getattr(owner, attr)
        self._restore = (owner, attr, orig)
        durations = self.durations_ns

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return orig(*args, **kwargs)
            finally:
                durations.append(time.perf_counter_ns() - start)

        setattr(owner, attr, wrapper)

    def close(self) -> None:
        owner, attr, orig = self._restore
        setattr(owner, attr, orig)


def _covered_ns(start: int, end: int, children: list[Span]) -> int:
    """Length of ``[start, end)`` covered by the children's intervals
    (children on other threads may overlap one another)."""
    covered = 0
    reach = start
    for s, e in sorted((c.start_ns, c.end_ns) for c in children):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return covered


def layer_profile(spans: list[Span], traces: set[int]) -> dict:
    """Self time per layer, plus the per-span figures the report needs,
    over the spans of the given (fully traced) actions."""
    kept = [s for s in spans if s.trace in traces]
    children: dict[int, list[Span]] = {}
    for s in kept:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_id = {s.span_id: s for s in kept}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    for s in kept:
        duration = s.end_ns - s.start_ns
        own = duration - _covered_ns(s.start_ns, s.end_ns, children.get(s.span_id, []))
        key = s.layer
        self_ns[key] = self_ns.get(key, 0) + own
        name = f"{s.layer}.{s.name}"
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + duration
    queue_ns = 0
    queued = 0
    busy_ns: dict[str, int] = {}
    engine_calls_under_writes = 0
    for s in kept:
        if s.layer == "shard" and s.name == "job":
            submit = by_id.get(s.parent)
            if submit is not None:
                queue_ns += s.start_ns - submit.start_ns
                queued += 1
            busy_ns[s.tag] = busy_ns.get(s.tag, 0) + (s.end_ns - s.start_ns)
        if s.layer == "exec":
            parent = by_id.get(s.parent)
            if parent is not None and parent.layer == "mt" and parent.tag == "w":
                engine_calls_under_writes += 1
    writes = sum(1 for s in kept if s.layer == "mt" and s.tag == "w")
    encoded = [s for s in kept if s.layer == "protocol" and s.name == "encode"]
    return {
        "self_ns": self_ns,
        "calls": calls,
        "total_ns": total_ns,
        "queue_ns": queue_ns,
        "queued": queued,
        "busy_ns": busy_ns,
        "mt_writes": writes,
        "engine_calls_under_writes": engine_calls_under_writes,
        "frames": len(encoded),
        "frame_bytes": sum(s.size for s in encoded),
    }
