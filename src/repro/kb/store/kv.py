"""Distributed-KV fact store stub (FoundationDB-style key layout).

A real deployment would put the fact log in a distributed ordered
key-value store — one key per fact under a ``facts/`` subspace, a
``meta/latest`` head pointer, both written in one transaction (the
``fact_collection`` backend shape). This stub keeps that exact key
layout over a plain mapping so the wiring, replication tests, and the
registry's write-through path can be exercised without a cluster; pass
a shared mapping to emulate several "nodes" over one store.

Keys are tuples packed to sortable strings::

    ("facts", 17)   -> "facts/00000000000000000017"
    ("meta", "latest") -> "meta/latest"

Values are canonical-JSON fact records.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterator, MutableMapping

from repro.kb.store.base import Fact, FactStore, validate_fact

_SEQ_WIDTH = 20


def _pack(space: str, key: Any) -> str:
    if space == "facts":
        return f"facts/{int(key):0{_SEQ_WIDTH}d}"
    return f"{space}/{key}"


class KVFactStore(FactStore):
    """Fact log over an ordered key-value mapping (cluster stand-in)."""

    def __init__(self, kv: MutableMapping[str, str] | None = None):
        self._kv: MutableMapping[str, str] = kv if kv is not None else {}
        self._lock = threading.Lock()

    def append(self, op: str, kind: str, name: str,
               payload: Any = None) -> Fact:
        validate_fact(op, kind, name)
        with self._lock:  # stands in for one KV transaction
            seq = self._latest_locked() + 1
            record = {"seq": seq, "op": op, "kind": kind, "name": name,
                      "payload": payload}
            self._kv[_pack("facts", seq)] = json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )
            self._kv[_pack("meta", "latest")] = str(seq)
            return Fact(seq, op, kind, name, payload)

    def scan(self, after: int = 0, upto: int | None = None) -> Iterator[Fact]:
        # Not a generator: the bound is read now, not at the first next().
        bound = self.latest_seq if upto is None else upto
        return self._facts_between(after, bound)

    def _facts_between(self, after: int, bound: int) -> Iterator[Fact]:
        for seq in range(after + 1, bound + 1):
            blob = self._kv.get(_pack("facts", seq))
            if blob is None:  # pragma: no cover - torn log
                break
            record = json.loads(blob)
            yield Fact(record["seq"], record["op"], record["kind"],
                       record["name"], record.get("payload"))

    def _latest_locked(self) -> int:
        return int(self._kv.get(_pack("meta", "latest"), "0"))

    @property
    def latest_seq(self) -> int:
        with self._lock:
            return self._latest_locked()
