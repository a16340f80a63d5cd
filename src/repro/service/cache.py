"""A disk-backed scenario-hash result cache shared by sweeps and the daemon.

:class:`PersistentResultCache` is a ``MutableMapping`` from
:meth:`SweepRunner point keys <repro.scenario.runner.SweepRunner._point_key>`
(the scenario hash, optionally suffixed with a resources hash) to pickled
:class:`~repro.core.federation.FederationResult` objects.  Because it quacks
like the plain dict :class:`~repro.scenario.runner.SweepRunner` memoises
into, it slots into ``SweepRunner(cache_dir=...)`` unchanged, and the
``gridfed daemon`` points its memoisation at the same directory — a scenario
swept yesterday is served instantly over HTTP today, and vice versa.

Entries are self-describing: each file carries a cache format version and
its own key.  A corrupt file (truncated write, disk fault), a stale version
(from an older gridfed) or a mis-keyed file (renamed by hand) is *evicted on
read* — deleted and treated as a miss, never returned — so the cache can
only ever serve results the current code wrote.  Writes are atomic
(temp-then-rename), so concurrent writers (daemon workers, orphaned runs)
race benignly: both write complete files with identical deterministic
contents.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections.abc import MutableMapping
from typing import Iterator

__all__ = ["CACHE_FORMAT_VERSION", "PersistentResultCache"]

#: Bump when the cached payload shape changes; older entries are evicted.
#: v2: results carry the slot-list ``MessageLog`` and ``TransportStats``
#: without ``by_type`` / ``per_job``.  v3: a result's live directory pickles
#: sorted ``(key, quote)`` lists in place of skip lists.  v4: it also
#: pickles its per-probe query charge.  v5: the simulator a result reaches
#: through its directory's transport pickles plain heap tuples and live seqs
#: in place of event handles.  v6: that simulator also pickles its arrival
#: feed's fields (a spent feed: empty lists and no callback).
CACHE_FORMAT_VERSION = 6

_SUFFIX = ".result.pkl"


class PersistentResultCache(MutableMapping):
    """Mapping from sweep point key to result, persisted one file per entry."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        #: Corrupt / stale / mis-keyed entries deleted on read so far.
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Key ↔ file mapping
    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> str:
        if not key or any(ch not in "0123456789abcdef:" for ch in key):
            # Point keys are hex digests (optionally "hash:resourceshash").
            raise KeyError(key)
        return os.path.join(self.directory, key.replace(":", "_") + _SUFFIX)

    @staticmethod
    def _key_of(filename: str) -> str:
        return filename[: -len(_SUFFIX)].replace("_", ":")

    # ------------------------------------------------------------------ #
    # MutableMapping interface
    # ------------------------------------------------------------------ #
    def __getitem__(self, key: str):
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                wrapper = pickle.load(handle)
        except FileNotFoundError:
            raise KeyError(key) from None
        except Exception:
            self._evict(path)
            raise KeyError(key) from None
        if (
            not isinstance(wrapper, dict)
            or wrapper.get("version") != CACHE_FORMAT_VERSION
            or wrapper.get("key") != key
        ):
            self._evict(path)
            raise KeyError(key)
        return wrapper["result"]

    def __setitem__(self, key: str, result) -> None:
        path = self._path(key)
        wrapper = {"version": CACHE_FORMAT_VERSION, "key": key, "result": result}
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".cache-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(wrapper, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def __delitem__(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[str]:
        for name in sorted(os.listdir(self.directory)):
            if name.endswith(_SUFFIX):
                yield self._key_of(name)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    # Membership goes through the Mapping default (a guarded __getitem__), so
    # "key in cache" already evicts corrupt/stale entries and reports a miss —
    # a caller that then executes and re-stores the point heals the cache.

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def _evict(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone / unreadable dir
            pass
        self.evictions += 1

    def clear(self) -> None:
        """Delete every cached entry (used by ``gridfed sweep --clear-cache``)."""
        for name in os.listdir(self.directory):
            if name.endswith(_SUFFIX):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover - concurrent clear
                    pass

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"PersistentResultCache({self.directory!r}, entries={len(self)}, "
            f"evictions={self.evictions})"
        )
