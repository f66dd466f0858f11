"""Bounded memoisation: a dict with least-recently-used eviction.

The PR-2 analytic memos (DC solves, ``k_design`` derivations, residual
fractions) were plain module-level dicts — correct, but unbounded: a long
campaign that walks many (node, Vdd, T) operating points grows them
forever.  :class:`LRUMemo` keeps the same two-call surface those modules
use (``get`` / ``__setitem__`` / ``clear``) while evicting the
least-recently-*used* entry once ``maxsize`` is reached.  Every memoised
computation is a pure function of its key, so an eviction can only cost a
recompute, never change a result — the golden-equivalence tests pin that.

Like ``functools.lru_cache``, each memo reports ``cache_info()``: hits,
misses, ``maxsize`` and ``currsize``.

Every :class:`LRUMemo` self-registers (weakly) at construction, so
:func:`reset_all` clears the whole analytic memo layer — the DC-solve,
``k_design``, and residual-fraction memos, plus any auxiliary caches
modules attach via :func:`register_reset` — in one call, without each
caller having to know which modules own which memo.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

_MEMOS: weakref.WeakSet = weakref.WeakSet()
_AUX_RESETS: list[Callable[[], None]] = []


def register_reset(fn: Callable[[], None]) -> Callable[[], None]:
    """Attach an auxiliary cache-clear callable to :func:`reset_all`.

    For caches that are not :class:`LRUMemo` instances (e.g. an
    ``functools.lru_cache`` wrapper's ``cache_clear``).  Returns ``fn`` so
    it can be used inline.  Registration is idempotent by identity.
    """
    if fn not in _AUX_RESETS:
        _AUX_RESETS.append(fn)
    return fn


def reset_all() -> None:
    """Clear every registered memo and auxiliary cache.

    One switch for the whole analytic layer: the solver's DC-solve memo,
    the ``k_design`` memo (and its surface-fit cache), and the residual-
    fraction memo all empty after this call — the memo-reset tests assert
    it.  Hit, miss and eviction counters are left alone; they are
    diagnostics, not state.
    """
    for memo in list(_MEMOS):
        memo.clear()
    for fn in _AUX_RESETS:
        fn()


class CacheInfo(NamedTuple):
    """:meth:`LRUMemo.cache_info`, shaped like ``functools``' own."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class LRUMemo:
    """A bounded memo dict; reads refresh recency, writes may evict.

    Args:
        maxsize: Entry cap; must cover the working set of one full figure
            sweep or the memo thrashes (callers size generously — entries
            are small and the cap only exists to bound long campaigns).
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data", "__weakref__")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        _MEMOS.add(self)

    def get(self, key: Hashable, default: Any = None) -> Any:
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            return default
        self.hits += 1
        data.move_to_end(key)
        return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()

    def cache_info(self) -> CacheInfo:
        """Lookups that hit and missed (``get`` calls), the cap, the size."""
        return CacheInfo(self.hits, self.misses, self.maxsize, len(self._data))
