"""Content-addressed result cache for campaign cells.

One checksummed file per (spec, code-version) pair, keyed by
:meth:`ScenarioSpec.content_hash`. Because the key covers a fingerprint
of the whole ``repro`` source tree, editing the simulator silently
orphans every old entry instead of serving stale results.

Integrity model — a damaged cache can only ever cost recomputation,
never a crash and never a silently-wrong figure:

* **atomic writes** — :meth:`ResultCache.put` streams the entry into
  a temp file, ``fsync``'s it, and atomically renames; a SIGKILL
  mid-put leaves either the old entry or the new one, never a
  truncated file at the entry path;
* **per-entry checksums** — every entry is a two-line file: a header
  carrying the sha256 of the body, then the body JSON. :meth:`get`
  re-hashes the body on every hit, so bit rot, torn writes from
  foreign tools, or hand-edits are detected *before* deserialization;
* **quarantine, not raise** — an entry that fails parsing or its
  checksum is moved to ``<root>/quarantine/`` (suffix ``.corrupt``)
  with a one-line ``harness`` warning and treated as a miss: the cell
  recomputes cold and the damaged bytes stay available for forensics.
  Entries that are merely *stale* (schema/code-fingerprint mismatch
  from an older build) are deleted silently, as before;
* **auditability** — :meth:`verify` (surfaced as ``repro cache
  verify``) scans the whole store and reports valid / stale /
  corrupt counts without recomputing anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from array import array
from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Optional

from repro.campaign.spec import (SPEC_SCHEMA_VERSION, ScenarioSpec,
                                 code_fingerprint)
from repro.campaign.summary import FlowSummary, ScenarioSummary
from repro.obs.events import WARN
from repro.obs.harness import harness_event

#: Environment override for the cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory (under the cache root) where corrupt entries are moved.
QUARANTINE_DIR = "quarantine"

#: Entry-reader statuses.
_OK = "ok"
_STALE = "stale"
_CORRUPT = "corrupt"
_MISSING = "missing"


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR``, else XDG cache, else ``~/.cache``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-campaign"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0    # stale entries removed on read
    quarantined: int = 0  # corrupt entries moved aside on read


@dataclass
class PruneStats:
    """Outcome of one :meth:`ResultCache.prune` pass."""

    kept: int = 0
    kept_bytes: int = 0
    pruned: int = 0
    pruned_bytes: int = 0


@dataclass
class VerifyReport:
    """Outcome of one :meth:`ResultCache.verify` scan."""

    scanned: int = 0
    valid: int = 0
    stale: int = 0
    corrupt: int = 0            # found (and quarantined) this scan
    quarantined_total: int = 0  # files sitting in quarantine/ afterwards
    corrupt_entries: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.corrupt == 0

    def lines(self) -> list:
        return [
            f"cache verify: {self.scanned} entries scanned — "
            f"{self.valid} valid, {self.stale} stale, "
            f"{self.corrupt} corrupt",
            f"  quarantine holds {self.quarantined_total} file(s)",
        ] + [f"  quarantined: {name}" for name in self.corrupt_entries]


def _header(check: str) -> bytes:
    """An entry's first line: fixed width, so it can follow its body."""
    return json.dumps({"check": check}).encode("utf-8") + b"\n"


def _entry_blob(body_blob: bytes) -> bytes:
    """The on-disk bytes for a serialized entry body."""
    return _header(hashlib.sha256(body_blob).hexdigest()) + body_blob


#: Series values per encoded block (~250 B each while it is encoded).
_BLOCK = 256


def _pieces(value):
    """``json.dumps(value)`` in pieces; a summary or flow stands for its
    ``as_dict()`` and is walked, a series a block at a time."""
    if isinstance(value, (ScenarioSummary, FlowSummary)):
        payload = vars(value) if isinstance(value, FlowSummary) else {
            **replace(value, flows=[]).as_dict(), "flows": value.flows}
        for i, (key, item) in enumerate(payload.items()):
            yield ("{" if i == 0 else ", ") + json.dumps(key) + ": "
            yield from _pieces(item)
        yield "}"
    elif isinstance(value, array):
        yield json.dumps(value[:_BLOCK].tolist())[:-1]
        for at in range(_BLOCK, len(value), _BLOCK):
            yield ", " + json.dumps(value[at:at + _BLOCK].tolist())[1:-1]
        yield "]"
    elif isinstance(value, list) and value and isinstance(value[0],
                                                          FlowSummary):
        for i, flow in enumerate(value):
            yield ", " if i else "["
            yield from _pieces(flow)
        yield "]"
    else:
        yield json.dumps(value)


def _read_entry(path: Path) -> tuple[str, Optional[dict], str]:
    """Parse + checksum one entry file: ``(status, body, reason)``.

    ``corrupt`` covers anything that cannot be byte-verified (torn
    file, checksum mismatch, undecodable JSON); ``stale`` covers
    well-formed entries from another code version or the pre-checksum
    format.
    """
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return _MISSING, None, "missing"
    except OSError as exc:
        return _CORRUPT, None, f"unreadable: {exc}"
    header, sep, body_blob = blob.partition(b"\n")
    if not sep:
        return _CORRUPT, None, "no header/body split (truncated?)"
    try:
        check = json.loads(header)["check"]
    except (ValueError, KeyError, TypeError):
        # No checksum header. A fully-parseable old-format entry is
        # stale (written before checksums); anything else is corrupt.
        try:
            payload = json.loads(blob)
        except ValueError:
            return _CORRUPT, None, "undecodable header"
        if isinstance(payload, dict) and "schema" in payload:
            return _STALE, None, "pre-checksum entry format"
        return _CORRUPT, None, "foreign JSON without checksum"
    if hashlib.sha256(body_blob).hexdigest() != check:
        return _CORRUPT, None, "checksum mismatch"
    try:
        body = json.loads(body_blob)
    except ValueError:
        return _CORRUPT, None, "checksummed body is not JSON"
    if not isinstance(body, dict):
        return _CORRUPT, None, "body is not an object"
    return _OK, body, ""


@dataclass
class ResultCache:
    """Spec-hash -> summary store under ``root`` (created lazily)."""

    root: Path = field(default_factory=default_cache_root)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside; never raises, never re-serves."""
        dest = self.quarantine_root / f"{path.name}.corrupt"
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return  # cannot even remove it: repeat miss, not a crash
        self.stats.quarantined += 1
        harness_event("quarantine", severity=WARN, entry=path.name,
                      reason=reason)

    def _evict(self, path: Path) -> None:
        self.stats.evictions += 1
        with suppress(OSError):
            path.unlink()

    def _body_matches(self, body: dict, key: str) -> bool:
        try:
            return (body["schema"] == SPEC_SCHEMA_VERSION
                    and body["key"] == key
                    and body["code"] == code_fingerprint())
        except (KeyError, TypeError):
            return False

    def get(self, spec: ScenarioSpec) -> ScenarioSummary | None:
        """The cached summary for ``spec``, or None on any miss.

        A corrupt entry (truncated write from a killed foreign process,
        bit rot, hand damage) is quarantined and reported as a miss —
        it can never raise out of the cache layer, and it can never
        poison a warm re-run, because the checksum is verified before a
        single summary field is deserialized.
        """
        key = spec.content_hash()
        path = self.path_for(key)
        status, body, reason = _read_entry(path)
        if status == _MISSING:
            self.stats.misses += 1
            return None
        if status == _CORRUPT:
            self.stats.misses += 1
            self._quarantine(path, reason)
            return None
        if status == _STALE or not self._body_matches(body, key):
            self.stats.misses += 1
            self._evict(path)
            return None
        try:
            summary = ScenarioSummary.from_dict(body["summary"])
        except Exception:
            # Checksum-valid but undeserializable: written by buggy or
            # incompatible code. Same playbook — set aside, recompute.
            self.stats.misses += 1
            self._quarantine(path, "summary failed to deserialize")
            return None
        self.stats.hits += 1
        # Touch the entry so prune()'s recency order reflects *use*, not
        # just creation: a hot entry written long ago outlives a cold
        # one written yesterday.
        with suppress(OSError):
            os.utime(path)
        return summary

    def put(self, spec: ScenarioSpec, summary: ScenarioSummary) -> Path:
        """Atomically persist ``summary`` under the spec's hash.

        temp write + fsync + rename: a concurrent reader (or a kill -9
        between any two instructions here) sees the old entry or the
        complete new one — never a torn file. The entry is hashed as it
        streams in, and written as :func:`_entry_blob` would write it.
        """
        key = spec.content_hash()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = {"schema": SPEC_SCHEMA_VERSION,
                "key": key,
                "code": code_fingerprint(),
                "spec": spec.as_dict()}
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_header("0" * 64))  # filled in below
                check = hashlib.sha256()
                pieces = chain([json.dumps(body)[:-1] + ', "summary": '],
                               _pieces(summary), ["}"])
                for block in map(str.encode, pieces):
                    check.update(block)
                    handle.write(block)
                handle.seek(0)
                handle.write(_header(check.hexdigest()))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
        self.stats.writes += 1
        return path

    def verify(self) -> VerifyReport:
        """Audit every entry: checksum + schema/key/code + payload shape.

        Corrupt entries are quarantined as they are found (exactly what
        :meth:`get` would have done on first touch), stale ones are
        left in place (harmless: the next ``get`` evicts them), and the
        report counts everything. ``repro cache verify`` surfaces this.
        """
        report = VerifyReport()
        for path in sorted(self.root.glob("*/*.json")):
            if path.parent.name == QUARANTINE_DIR:
                continue
            report.scanned += 1
            status, body, reason = _read_entry(path)
            key = path.stem
            if status == _OK and self._body_matches(body, key):
                try:
                    ScenarioSummary.from_dict(body["summary"])
                except Exception:
                    status, reason = _CORRUPT, "summary failed to deserialize"
                else:
                    report.valid += 1
                    continue
            if status == _CORRUPT:
                report.corrupt += 1
                report.corrupt_entries.append(path.name)
                self._quarantine(path, reason)
            else:
                report.stale += 1
        try:
            report.quarantined_total = sum(
                1 for _ in self.quarantine_root.iterdir())
        except OSError:
            report.quarantined_total = 0
        return report

    def prune(self, max_bytes: int) -> PruneStats:
        """Shrink the store to ``max_bytes``, dropping least-recently-used
        entries first.

        Recency is file mtime — refreshed by :meth:`get` on every hit —
        so the entries that survive are the ones campaigns actually
        replay. Entries that vanish mid-scan (a concurrent campaign
        pruning the same root) are skipped, never an error. The
        quarantine directory is out of scope: damaged evidence is only
        ever removed explicitly.
        """
        stats = PruneStats()
        entries: list[tuple[float, int, Path]] = []
        for path in self.root.glob("*/*.json"):
            if path.parent.name == QUARANTINE_DIR:
                continue
            try:
                meta = path.stat()
            except OSError:
                continue
            entries.append((meta.st_mtime, meta.st_size, path))
        # Newest first; keep while under budget, unlink the rest.
        entries.sort(key=lambda item: item[0], reverse=True)
        for mtime, size, path in entries:
            if stats.kept_bytes + size <= max_bytes:
                stats.kept += 1
                stats.kept_bytes += size
                continue
            try:
                path.unlink()
            except OSError:
                continue
            stats.pruned += 1
            stats.pruned_bytes += size
        return stats


def resolve_cache(cache) -> ResultCache | None:
    """Normalize the ``cache=`` argument accepted by the runner.

    ``None``/``False`` -> no caching; ``True`` -> the default root; a
    path -> a cache rooted there; a :class:`ResultCache` -> itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(root=Path(cache))
