"""The one bounded least-recently-used map every cache in the package uses:
routing rows, routed paths and tree legs, RP plans and built scenarios."""

from __future__ import annotations

from collections import OrderedDict


class LRU:
    """A ``key -> value`` map holding at most ``max_size`` entries.

    :meth:`get` marks an entry most recently used; :meth:`put` stores
    a missed key's value and evicts the least recently used entries past
    ``max_size``, counting them in :attr:`evictions`.  ``None`` is never
    stored (``get`` returns it for a miss).  Callers validate
    ``max_size`` with their own message.
    """

    __slots__ = ("max_size", "evictions", "_entries")

    def __init__(self, max_size: int):
        self.max_size = max_size
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, value) -> None:
        entries = self._entries
        entries[key] = value
        while len(entries) > self.max_size:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry; the eviction count stays."""
        self._entries.clear()
