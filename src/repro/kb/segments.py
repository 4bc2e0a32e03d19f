"""The on-disk storage engine: immutable sorted-segment files.

A *segment* is one immutable unit of KB storage: the same triples written
three times, each file sorted in a different term permutation — ``spo``,
``pos``, ``osp`` — so every indexed pattern shape becomes a binary search
for a byte-prefix range in exactly one file.  A sidecar carries bloom
filters (full SPO key, and subject text) so point lookups and subject
scans can skip segments that cannot contain the key.  ``MANIFEST.json``
names the live segments, their checksums, and the logical store identity
(triple count and content-chain epoch).

The format is **byte-pinned**: every integer is little-endian and
fixed-width, records are canonical rdfio term texts, and record order is
the lexicographic order of the record bytes themselves — no hash order,
no timestamps, no randomness anywhere.  Two builds of the same world
therefore produce byte-identical segment directories at any worker count,
which is what lets ``repro check-determinism`` diff KBs as
files and what makes the golden tiny-world fixture in ``tests/`` stable.

Layout of one order file (``seg-NNNNNN.spo`` / ``.pos`` / ``.osp``)::

    magic   8s   b"RPROSEG1"
    order   4s   b"spo\\0" / b"pos\\0" / b"osp\\0"
    version u32  1
    count   u64  number of records
    heap    u64  record-heap length in bytes
    offsets u64 × (count + 1), relative to the heap start
    heap    the records, back to back, sorted by their own bytes

A record is the four canonical texts joined by NUL —
``term_a\\0term_b\\0term_c\\0annotations`` — with the three terms permuted
per order (``pos`` stores predicate, object, subject).  NUL sorts below
every other byte, so comparing raw record bytes is exactly tuple
comparison on the fields, and a prefix probe for ``k`` bound terms is the
half-open range ``[lower_bound(prefix), lower_bound(prefix + b"\\xff"))``
(0xFF is above every byte UTF-8 can produce).  Term texts and annotations
must not contain NUL; the writer rejects them.

Multiple segments form an LSM-style stack: the newest generation wins per
SPO key, which is what the incremental build path leans on.  A delta
generation can also *retract*: a **tombstone record** is a record whose
annotations field is the sentinel ``!tombstone`` (a text the annotation
serializer can never produce), and it shadows every older record with its
SPO key without contributing a triple itself.  Tombstones participate in
bloom filters and binary searches like any record — a point lookup must
not skip the delta that deletes its key — but are dropped from logical
reads, counts, and the epoch.  ``compact()`` folds the stack back to the
**canonical single-segment form**: generation 0 (``seg-000000``), with
every tombstone — and everything it shadowed — erased for good, so a
compacted directory is byte-identical to :func:`write_segments` of the
same logical content.  Replaced files are rewritten atomically (tmp +
``os.replace``) and old ones unlinked; because POSIX keeps
unlinked-but-open mmaps readable, snapshots opened before a compaction
keep working lock-free.

:class:`SegmentSnapshot` is the read side: a cheap, immutable,
lock-free view satisfying :class:`~repro.kb.engine.ReadableStore`, with
``match`` orders chosen so that its responses are byte-identical to an
in-memory :class:`~repro.kb.store.TripleStore` loaded from the same
snapshot (see ``_match_parts``).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import threading
from typing import Iterable, Iterator, Optional

from .engine import ReadOnlyStoreError
from .rdfio import annotations_to_text, term_to_text, triple_from_parts
from .store import EMPTY_EPOCH, epoch_hex, triple_content_hash
from .terms import Resource, Term
from .triple import Triple
from ..obs import core as _obs

SEGMENT_MAGIC = b"RPROSEG1"
BLOOM_MAGIC = b"RPROBLM1"
FORMAT_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"

#: The three sort orders and the term permutation each file stores.
ORDERS = ("spo", "pos", "osp")
_PERM = {"spo": (0, 1, 2), "pos": (1, 2, 0), "osp": (2, 0, 1)}

_HEADER = struct.Struct("<8s4sIQQ")  # magic, order, version, count, heap bytes
_U64 = struct.Struct("<Q")
_BLOOM_HEADER = struct.Struct("<8sII")  # magic, version, bloom count
_BLOOM_ENTRY = struct.Struct("<4sQII")  # name, bits, hashes, byte length

#: Bloom sizing: ~1% false-positive rate at 10 bits/key with 7 hashes.
BLOOM_BITS_PER_KEY = 10
BLOOM_HASHES = 7


# --------------------------------------------------------------- records

#: The annotations-field sentinel marking a retraction record.  Real
#: annotations are either empty or start with ``conf=``/``src=``/``scope=``
#: (see :func:`repro.kb.rdfio.annotations_to_text`), so this text is
#: unreachable from any triple and the two record kinds can never collide.
TOMBSTONE = "!tombstone"


def tombstone_fields(
    subject_text: str, predicate_text: str, object_text: str
) -> tuple[str, str, str, str]:
    """The record fields of a tombstone for one canonical SPO key."""
    return (subject_text, predicate_text, object_text, TOMBSTONE)


def is_tombstone(fields: tuple[str, str, str, str]) -> bool:
    """True when record fields carry the retraction sentinel."""
    return fields[3] == TOMBSTONE


def spo_texts(triple: Triple) -> tuple[str, str, str]:
    """A triple's canonical (subject, predicate, object) texts — the key
    form :meth:`SegmentStore.flush` accepts as a tombstone."""
    return (
        term_to_text(triple.subject),
        term_to_text(triple.predicate),
        term_to_text(triple.object),
    )


def record_fields(triple: Triple) -> tuple[str, str, str, str]:
    """The four canonical texts a record stores, in SPO order."""
    return (
        term_to_text(triple.subject),
        term_to_text(triple.predicate),
        term_to_text(triple.object),
        annotations_to_text(triple),
    )


def _record_bytes(fields: tuple[str, str, str, str], order: str) -> bytes:
    a, b, c = (fields[i] for i in _PERM[order])
    return "\x00".join((a, b, c, fields[3])).encode("utf-8")


def _parts_from_record(record: bytes, order: str) -> tuple[str, str, str, str]:
    """Invert :func:`_record_bytes`: record bytes back to SPO-order texts."""
    a, b, c, annotation = record.decode("utf-8").split("\x00", 3)
    permuted = (a, b, c)
    inverse = _PERM[order]
    spo = ["", "", ""]
    for position, field in zip(inverse, permuted):
        spo[position] = field
    return (spo[0], spo[1], spo[2], annotation)


def _prefix_bytes(texts: Iterable[str]) -> bytes:
    """The byte prefix every record whose leading fields equal ``texts``
    starts with (each field is NUL-terminated in the record)."""
    return "".join(f"{t}\x00" for t in texts).encode("utf-8")


def _triple_from_parts(parts: tuple[str, str, str, str]) -> Triple:
    return triple_from_parts(parts[0], parts[1], parts[2], parts[3])


def spo_key_bytes(fields: tuple[str, str, str, str]) -> bytes:
    """The SPO identity key a bloom filter and the dedup logic speak."""
    return _prefix_bytes(fields[:3])


# ---------------------------------------------------------------- blooms


class BloomFilter:
    """A plain bitset bloom filter with double hashing off one blake2b.

    The two 64-bit hash lanes come from a single 16-byte blake2b digest
    (first 8 bytes and last 8 bytes, little-endian; the second lane is
    forced odd), probing ``(h1 + i * h2) mod num_bits`` — deterministic
    across processes, no per-run salts.
    """

    __slots__ = ("num_bits", "num_hashes", "bits")

    def __init__(self, num_bits: int, num_hashes: int, bits: bytearray) -> None:
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.bits = bits

    @classmethod
    def build(cls, keys: Iterable[bytes], bits_per_key: int = BLOOM_BITS_PER_KEY,
              num_hashes: int = BLOOM_HASHES) -> "BloomFilter":
        keys = list(keys)
        num_bits = max(64, len(keys) * bits_per_key)
        num_bits += (-num_bits) % 8
        bloom = cls(num_bits, num_hashes, bytearray(num_bits // 8))
        for key in keys:
            bloom.add(key)
        return bloom

    def _probes(self, key: bytes) -> Iterator[int]:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: bytes) -> None:
        for bit in self._probes(key):
            self.bits[bit >> 3] |= 1 << (bit & 7)

    def might_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means possibly present."""
        return all(self.bits[bit >> 3] & (1 << (bit & 7)) for bit in self._probes(key))


def _pack_blooms(blooms: dict[str, BloomFilter]) -> bytes:
    chunks = [_BLOOM_HEADER.pack(BLOOM_MAGIC, FORMAT_VERSION, len(blooms))]
    for name in sorted(blooms):
        bloom = blooms[name]
        padded = name.encode("ascii").ljust(4, b"\x00")
        chunks.append(
            _BLOOM_ENTRY.pack(padded, bloom.num_bits, bloom.num_hashes, len(bloom.bits))
        )
        chunks.append(bytes(bloom.bits))
    return b"".join(chunks)


def _unpack_blooms(blob: bytes) -> dict[str, BloomFilter]:
    magic, version, count = _BLOOM_HEADER.unpack_from(blob, 0)
    if magic != BLOOM_MAGIC or version != FORMAT_VERSION:
        raise ValueError(f"bad bloom sidecar header: {magic!r} v{version}")
    blooms: dict[str, BloomFilter] = {}
    cursor = _BLOOM_HEADER.size
    for _ in range(count):
        padded, num_bits, num_hashes, byte_len = _BLOOM_ENTRY.unpack_from(blob, cursor)
        cursor += _BLOOM_ENTRY.size
        bits = bytearray(blob[cursor:cursor + byte_len])
        cursor += byte_len
        name = padded.rstrip(b"\x00").decode("ascii")
        blooms[name] = BloomFilter(num_bits, num_hashes, bits)
    return blooms


# ----------------------------------------------------------- order files


def _pack_order_file(order: str, records: list[bytes]) -> bytes:
    """Serialize sorted records into one order file's bytes."""
    heap = b"".join(records)
    chunks = [_HEADER.pack(SEGMENT_MAGIC, f"{order}\x00".encode("ascii"),
                           FORMAT_VERSION, len(records), len(heap))]
    offset = 0
    for record in records:
        chunks.append(_U64.pack(offset))
        offset += len(record)
    chunks.append(_U64.pack(offset))
    chunks.append(heap)
    return b"".join(chunks)


class _OrderFile:
    """A read-only mmap view over one sorted order file."""

    __slots__ = ("path", "order", "count", "_file", "_mm", "_offsets_at", "_heap_at")

    def __init__(self, path: str, order: str) -> None:
        self.path = path
        self.order = order
        self._file = open(path, "rb")
        self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        magic, order_tag, version, count, heap_bytes = _HEADER.unpack_from(self._mm, 0)
        if magic != SEGMENT_MAGIC or version != FORMAT_VERSION:
            raise ValueError(f"bad segment header in {path}: {magic!r} v{version}")
        if order_tag != f"{order}\x00".encode("ascii"):
            raise ValueError(f"{path}: order tag {order_tag!r} != {order!r}")
        self.count = count
        self._offsets_at = _HEADER.size
        self._heap_at = self._offsets_at + (count + 1) * 8
        expected = self._heap_at + heap_bytes
        if len(self._mm) != expected:
            raise ValueError(f"{path}: truncated ({len(self._mm)} != {expected} bytes)")

    def _offset(self, i: int) -> int:
        return _U64.unpack_from(self._mm, self._offsets_at + i * 8)[0]

    def record(self, i: int) -> bytes:
        lo = self._heap_at + self._offset(i)
        hi = self._heap_at + self._offset(i + 1)
        return self._mm[lo:hi]

    def lower_bound(self, needle: bytes) -> int:
        """The first index whose record sorts >= ``needle``."""
        lo, hi = 0, self.count
        while lo < hi:
            mid = (lo + hi) // 2
            if self.record(mid) < needle:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def prefix_range(self, prefix: bytes) -> tuple[int, int]:
        """The half-open [lo, hi) index range of records starting with
        ``prefix`` (empty prefix selects everything)."""
        if not prefix:
            return 0, self.count
        return self.lower_bound(prefix), self.lower_bound(prefix + b"\xff")

    def records(self, lo: int, hi: int) -> Iterator[bytes]:
        for i in range(lo, hi):
            yield self.record(i)

    def close(self) -> None:
        self._mm.close()
        self._file.close()


# --------------------------------------------------------------- writing


def _check_no_nul(fields: tuple[str, str, str, str]) -> None:
    for field in fields:
        if "\x00" in field:
            raise ValueError(f"NUL byte in segment record field: {field!r}")


def _dedup_newest_wins(
    batches: Iterable[Iterable[tuple[str, str, str, str]]],
) -> dict[bytes, tuple[str, str, str, str]]:
    """Merge record-field batches, **newest batch first**: the first
    occurrence of an SPO key wins (LSM shadowing)."""
    merged: dict[bytes, tuple[str, str, str, str]] = {}
    for batch in batches:
        for fields in batch:
            key = spo_key_bytes(fields)
            if key not in merged:
                merged[key] = fields
    return merged


def _drop_tombstones(
    parts_by_key: dict[bytes, tuple[str, str, str, str]],
) -> dict[bytes, tuple[str, str, str, str]]:
    """Logical view of a newest-wins merge: keys whose winning record is a
    tombstone are deleted (the tombstone shadowed every older witness)."""
    return {
        key: fields
        for key, fields in parts_by_key.items()
        if not is_tombstone(fields)
    }


def _logical_epoch(parts_by_key: dict[bytes, tuple[str, str, str, str]]) -> str:
    """The epoch of the logical content: the same multiset content hash an
    in-memory :class:`~repro.kb.store.TripleStore` holding these triples
    reports (see ``triple_content_hash``) — order-independent, so a store
    loaded from the ``.nt`` file, a store loaded from this snapshot, and
    the snapshot itself all agree on the epoch."""
    accumulator = EMPTY_EPOCH
    for key in sorted(parts_by_key):
        accumulator += triple_content_hash(_triple_from_parts(parts_by_key[key]))
    return epoch_hex(accumulator)


def _replace_file(path: str, blob: bytes) -> None:
    """Atomically (re)write one segment file.

    Never truncates in place: compaction reuses the canonical segment name
    (``seg-000000``), and an ``open(path, "wb")`` would zero the very inode
    a pinned snapshot still has mmap-ed.  Writing a sibling ``.tmp`` and
    ``os.replace``-ing it swaps the directory entry instead — the old inode
    lives on for every open mmap.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
    os.replace(tmp, path)


def _write_segment_files(
    directory: str, name: str, parts: list[tuple[str, str, str, str]]
) -> dict:
    """Write one segment's three order files + bloom sidecar; return its
    manifest entry.  ``parts`` need not be pre-sorted or pre-validated and
    may include tombstone records: they are stored (and bloomed — a lookup
    must not skip the segment that deletes its key) but counted separately
    from live triples."""
    for fields in parts:
        _check_no_nul(fields)
    tombstones = sum(1 for fields in parts if is_tombstone(fields))
    entry_files: dict[str, dict] = {}
    for order in ORDERS:
        records = sorted(_record_bytes(fields, order) for fields in parts)
        blob = _pack_order_file(order, records)
        _replace_file(os.path.join(directory, f"{name}.{order}"), blob)
        entry_files[order] = {
            "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
            "min_key": records[0].hex() if records else "",
            "max_key": records[-1].hex() if records else "",
        }
    blooms = {
        "spo": BloomFilter.build(spo_key_bytes(fields) for fields in parts),
        "s": BloomFilter.build(
            sorted({fields[0].encode("utf-8") for fields in parts})
        ),
    }
    bloom_blob = _pack_blooms(blooms)
    _replace_file(os.path.join(directory, f"{name}.blooms"), bloom_blob)
    if _obs.ENABLED:
        _obs.count("kb.segments.write")
        _obs.observe("kb.segments.write.triples", len(parts))
    entry = {
        "name": name,
        "generation": int(name.split("-")[1]),
        "triples": len(parts) - tombstones,
        "files": entry_files,
        "blooms": {
            "bytes": len(bloom_blob),
            "sha256": hashlib.sha256(bloom_blob).hexdigest(),
        },
    }
    if tombstones:
        # Only present when nonzero, so tombstone-free manifests stay
        # byte-identical to the pre-tombstone format (golden fixtures).
        entry["tombstones"] = tombstones
    return entry


def _write_manifest(directory: str, manifest: dict) -> None:
    """Atomically replace the manifest (canonical JSON, sorted keys)."""
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
    tmp = os.path.join(directory, MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, os.path.join(directory, MANIFEST_NAME))


def _read_manifest(directory: str) -> dict:
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported segment format {manifest.get('format_version')!r} in {path}"
        )
    return manifest


def write_segments(store: Iterable[Triple], directory: str) -> dict:
    """Emit a fresh single-segment directory for a store's content.

    The result is a pure function of the logical triples: any prior
    segments in the directory are replaced, the single segment is always
    ``seg-000000``, and two builds of the same world are byte-identical
    file for file.  Returns the manifest dict.
    """
    os.makedirs(directory, exist_ok=True)
    for stale in sorted(os.listdir(directory)):
        if stale.startswith("seg-") or stale.startswith(MANIFEST_NAME):
            os.unlink(os.path.join(directory, stale))
    parts_by_key = _dedup_newest_wins([[record_fields(t) for t in store]])
    parts = [parts_by_key[key] for key in sorted(parts_by_key)]
    entry = _write_segment_files(directory, "seg-000000", parts)
    manifest = {
        "format_version": FORMAT_VERSION,
        "epoch": _logical_epoch(parts_by_key),
        "triples": len(parts),
        "segments": [entry],
    }
    _write_manifest(directory, manifest)
    return manifest


# --------------------------------------------------------------- reading


class _OpenSegment:
    """One live segment: lazily opened order files plus its blooms."""

    __slots__ = ("directory", "entry", "_orders", "_blooms")

    def __init__(self, directory: str, entry: dict) -> None:
        self.directory = directory
        self.entry = entry
        self._orders: dict[str, _OrderFile] = {}
        self._blooms: Optional[dict[str, BloomFilter]] = None

    @property
    def name(self) -> str:
        return self.entry["name"]

    @property
    def generation(self) -> int:
        return self.entry["generation"]

    def order_file(self, order: str) -> _OrderFile:
        handle = self._orders.get(order)
        if handle is None:
            path = os.path.join(self.directory, f"{self.name}.{order}")
            handle = self._orders[order] = _OrderFile(path, order)
        return handle

    def bloom(self, name: str) -> BloomFilter:
        if self._blooms is None:
            path = os.path.join(self.directory, f"{self.name}.blooms")
            with open(path, "rb") as handle:
                self._blooms = _unpack_blooms(handle.read())
        return self._blooms[name]

    def close(self) -> None:
        for handle in self._orders.values():
            handle.close()
        self._orders.clear()


class SegmentSnapshot:
    """An immutable, lock-free view over one manifest's segments.

    Opening a snapshot reads the manifest and mmaps segment files —
    no locks, no copies — so any number of threads or processes can serve
    the same build concurrently.  It satisfies the
    :class:`~repro.kb.engine.ReadableStore` contract: ``version`` is the
    logical triple count (what a fresh in-memory load would also report)
    and ``epoch`` is the manifest's content-chain epoch, so
    ``TripleStore(snapshot)`` agrees with the snapshot on both — the
    property that makes snapshot serving byte-identical to in-memory
    serving, cache keys included.

    Mutation methods raise :class:`~repro.kb.engine.ReadOnlyStoreError`.
    """

    mutable = False

    #: shape -> (order file, which SPO positions form the prefix)
    _SHAPES = {
        "spo": ("spo", (0, 1, 2)),
        "sp": ("spo", (0, 1)),
        "s": ("spo", (0,)),
        "po": ("pos", (1, 2)),
        "p": ("pos", (1,)),
        "o": ("osp", (2,)),
        "s+o": ("osp", (2, 0)),
        "scan": ("spo", ()),
    }

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.manifest = _read_manifest(directory)
        # Newest generation first: the dedup in _match_parts keeps the
        # first occurrence of each SPO key it sees.
        self._segments = [
            _OpenSegment(directory, entry)
            for entry in sorted(
                self.manifest["segments"],
                key=lambda e: e["generation"],
                reverse=True,
            )
        ]
        # Pin every file NOW: a later compaction unlinks replaced segment
        # files, and only already-open mmaps survive an unlink (POSIX).
        for segment in self._segments:
            for order in ORDERS:
                segment.order_file(order)
            segment.bloom("spo")
        self._has_tombstones = any(
            entry.get("tombstones") for entry in self.manifest["segments"]
        )
        self.stats = {"probes": 0, "bloom_skips": 0}

    # ------------------------------------------------------------ identity

    @property
    def version(self) -> int:
        """The logical triple count — equal to the ``version`` a fresh
        :class:`TripleStore` loaded from this snapshot reports."""
        return self.manifest["triples"]

    @property
    def epoch(self) -> str:
        """The manifest's content-chain epoch (hex)."""
        return self.manifest["epoch"]

    @property
    def segments(self) -> list[_OpenSegment]:
        return self._segments

    # --------------------------------------------------------------- reads

    @staticmethod
    def _shape(s, p, o) -> str:
        if s is not None and p is not None and o is not None:
            return "spo"
        if s is not None and p is not None:
            return "sp"
        if p is not None and o is not None:
            return "po"
        if s is not None and o is not None:
            return "s+o"
        if s is not None:
            return "s"
        if p is not None:
            return "p"
        if o is not None:
            return "o"
        return "scan"

    def _match_parts(
        self,
        subject: Optional[Resource],
        predicate: Optional[Resource],
        obj: Optional[Term],
    ) -> list[tuple[str, str, str, str]]:
        """Matching records as SPO-order text parts, in the order an
        in-memory store loaded from this snapshot would yield them.

        For every shape except ``p`` the serving order file's sort
        already equals the in-memory bucket's insertion order (buckets
        fill in canonical SPO order when a store loads a snapshot); a
        predicate-only probe reads the POS file — sorted (o, s) — but the
        in-memory ``_by_p`` bucket iterates (s, o), so that one shape
        re-sorts by SPO key.  Multi-segment stacks always re-sort after
        newest-wins dedup, which single-segment snapshots can skip.
        """
        shape = self._shape(subject, predicate, obj)
        order, positions = self._SHAPES[shape]
        texts = {
            0: None if subject is None else term_to_text(subject),
            1: None if predicate is None else term_to_text(predicate),
            2: None if obj is None else term_to_text(obj),
        }
        prefix = _prefix_bytes(texts[i] for i in positions)
        self.stats["probes"] += 1
        if _obs.ENABLED:
            _obs.count("kb.segments.match")
            _obs.count(f"kb.segments.match.shape.{shape}")
        batches = []
        for segment in self._segments:
            if shape == "spo" and not segment.bloom("spo").might_contain(prefix):
                self.stats["bloom_skips"] += 1
                continue
            if shape in ("s", "sp") and not segment.bloom("s").might_contain(
                texts[0].encode("utf-8")
            ):
                self.stats["bloom_skips"] += 1
                continue
            handle = segment.order_file(order)
            lo, hi = handle.prefix_range(prefix)
            batches.append(
                [_parts_from_record(r, order) for r in handle.records(lo, hi)]
            )
        if len(batches) == 1 and shape != "p":
            # The single-segment fast path still sees tombstones: a fresh
            # delta segment carries its own retractions.
            if self._has_tombstones:
                return [p for p in batches[0] if not is_tombstone(p)]
            return batches[0]
        merged = _dedup_newest_wins(batches)
        if self._has_tombstones:
            merged = _drop_tombstones(merged)
        if shape == "p":
            return [merged[key] for key in sorted(merged)]
        reorder = _PERM[order]
        return sorted(
            merged.values(), key=lambda parts: tuple(parts[i] for i in reorder)
        )

    def match(
        self,
        subject: Optional[Resource] = None,
        predicate: Optional[Resource] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate over triples matching a pattern; None is a wildcard."""
        for parts in self._match_parts(subject, predicate, obj):
            yield _triple_from_parts(parts)

    def count(
        self,
        subject: Optional[Resource] = None,
        predicate: Optional[Resource] = None,
        obj: Optional[Term] = None,
    ) -> int:
        return len(self._match_parts(subject, predicate, obj))

    def get(self, subject: Resource, predicate: Resource, obj: Term) -> Optional[Triple]:
        for triple in self.match(subject, predicate, obj):
            return triple
        return None

    def contains_fact(self, subject: Resource, predicate: Resource, obj: Term) -> bool:
        return self.get(subject, predicate, obj) is not None

    def __len__(self) -> int:
        return self.manifest["triples"]

    def __iter__(self) -> Iterator[Triple]:
        return self.match()

    def __contains__(self, triple: Triple) -> bool:
        return self.contains_fact(triple.subject, triple.predicate, triple.object)

    def predicates(self) -> set:
        """The set of predicates occurring in the snapshot."""
        seen: dict[str, None] = {}
        for parts in self._match_parts(None, None, None):
            seen.setdefault(parts[1], None)
        return {
            triple_from_parts("<x>", text, "<x>").predicate for text in seen
        }

    # ----------------------------------------------------------- mutations

    def _read_only(self, *_args, **_kwargs):
        raise ReadOnlyStoreError(
            "segment snapshots are immutable; load into a TripleStore to mutate"
        )

    add = add_fact = add_all = remove = merge = _read_only

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        for segment in self._segments:
            segment.close()

    def __enter__(self) -> "SegmentSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SegmentSnapshot(dir={self.directory!r}, "
            f"segments={len(self._segments)}, triples={len(self)})"
        )


def open_snapshot(directory: str) -> SegmentSnapshot:
    """Open a lock-free read snapshot of a segment directory."""
    return SegmentSnapshot(directory)


# ------------------------------------------------------------ segment store


class SegmentStore:
    """The write side of a segment directory: flush deltas, compact.

    ``flush`` appends one new segment per call (an LSM level-0 write);
    when the stack exceeds ``compact_threshold`` segments a background
    thread folds them into one.  All writers serialize on one lock;
    readers never take it — they open :class:`SegmentSnapshot` views,
    which stay valid across compaction because POSIX keeps unlinked
    files readable while mapped.
    """

    def __init__(self, directory: str, compact_threshold: int = 4) -> None:
        self.directory = directory
        self.compact_threshold = compact_threshold
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._compactor: Optional[threading.Thread] = None
        self._recompact = False
        self._closed = False

    # ------------------------------------------------------------- helpers

    def _manifest(self) -> dict:
        if os.path.exists(os.path.join(self.directory, MANIFEST_NAME)):
            return _read_manifest(self.directory)
        return {"format_version": FORMAT_VERSION, "epoch": epoch_hex(EMPTY_EPOCH),
                "triples": 0, "segments": []}

    def _segment_parts(self, entry: dict) -> list[tuple[str, str, str, str]]:
        handle = _OrderFile(
            os.path.join(self.directory, f"{entry['name']}.spo"), "spo"
        )
        try:
            return [
                _parts_from_record(r, "spo") for r in handle.records(0, handle.count)
            ]
        finally:
            handle.close()

    def _logical_parts(self, manifest: dict) -> dict[bytes, tuple[str, str, str, str]]:
        entries = sorted(
            manifest["segments"], key=lambda e: e["generation"], reverse=True
        )
        merged = _dedup_newest_wins(self._segment_parts(e) for e in entries)
        return _drop_tombstones(merged)

    def logical_parts(self) -> dict[bytes, tuple[str, str, str, str]]:
        """The store's merged logical content: newest-wins across the
        generation stack, tombstoned keys dropped, keyed by SPO key bytes.
        This is what an incremental build diffs a freshly rebuilt KB
        against to derive the next delta's adds and tombstones."""
        with self._lock:
            return self._logical_parts(self._manifest())

    # -------------------------------------------------------------- writes

    def flush(
        self,
        triples: Iterable[Triple],
        tombstones: Iterable[tuple[str, str, str]] = (),
    ) -> Optional[str]:
        """Write one new segment holding ``triples`` plus retraction
        ``tombstones``; returns its name (None for an empty batch).

        A tombstone is the canonical (subject, predicate, object) text
        triple of the key to retract (:func:`spo_texts`); it shadows every
        older generation's record for that key and is erased for good at
        :meth:`compact`.  The manifest's logical count and epoch are
        recomputed over the merged, newest-wins, tombstone-filtered
        content.
        """
        parts = [record_fields(t) for t in triples]
        dead = [tombstone_fields(*key) for key in tombstones]
        if not parts and not dead:
            return None
        live_keys = {spo_key_bytes(fields) for fields in parts}
        for fields in dead:
            if spo_key_bytes(fields) in live_keys:
                raise ValueError(
                    f"key is both added and tombstoned in one flush: "
                    f"{fields[:3]!r}"
                )
        with self._lock:
            if self._closed:
                raise ValueError("SegmentStore is closed")
            manifest = self._manifest()
            generation = max(
                (e["generation"] for e in manifest["segments"]), default=-1
            ) + 1
            name = f"seg-{generation:06d}"
            deduped = _dedup_newest_wins([parts + dead])
            entry = _write_segment_files(
                self.directory, name, [deduped[k] for k in sorted(deduped)]
            )
            manifest["segments"].append(entry)
            logical = self._logical_parts(manifest)
            manifest["epoch"] = _logical_epoch(logical)
            manifest["triples"] = len(logical)
            _write_manifest(self.directory, manifest)
            live = len(manifest["segments"])
        if live > self.compact_threshold:
            self.compact_async()
        return name

    #: The canonical segment name compaction folds the stack into.
    _CANONICAL = "seg-000000"

    def compact(self) -> Optional[str]:
        """Fold every live segment into the canonical single-segment form:
        generation 0, tombstones (and everything they shadowed) erased.

        Logical content — and therefore the epoch — is unchanged, and the
        resulting directory is byte-identical to :func:`write_segments` of
        the same content, which is what lets the determinism harness diff
        an incrementally grown KB against a full rebuild file for file.
        Returns the canonical segment name (None when the directory is
        already canonical or empty).  Replaced files are swapped atomically
        and stale ones unlinked, which existing snapshots survive (their
        mmaps stay valid).  A compaction already scheduled when
        :meth:`close` runs still completes — close joins it — but close
        refuses to *schedule* new ones (see :meth:`compact_async`)."""
        with self._lock:
            manifest = self._manifest()
            old_entries = manifest["segments"]
            if not old_entries:
                return None
            if (
                len(old_entries) == 1
                and old_entries[0]["name"] == self._CANONICAL
                and not old_entries[0].get("tombstones")
            ):
                return None
            if _obs.ENABLED:
                _obs.count("kb.segments.compact")
            logical = self._logical_parts(manifest)
            entry = _write_segment_files(
                self.directory,
                self._CANONICAL,
                [logical[k] for k in sorted(logical)],
            )
            manifest = {
                "format_version": FORMAT_VERSION,
                "epoch": _logical_epoch(logical),
                "triples": len(logical),
                "segments": [entry],
            }
            _write_manifest(self.directory, manifest)
            for old in old_entries:
                if old["name"] == self._CANONICAL:
                    continue    # its files were just atomically replaced
                for suffix in ORDERS + ("blooms",):
                    path = os.path.join(self.directory, f"{old['name']}.{suffix}")
                    if os.path.exists(path):
                        os.unlink(path)
            return self._CANONICAL

    def _compact_worker(self) -> None:
        """Compactor thread body: compact, then retire *under the lock*.

        A flush that crossed the threshold while we were compacting set
        ``_recompact`` instead of spawning a second thread; the flag is
        consumed here before retiring, so its request cannot be lost in
        the window between our last fold and our exit.  ``close()`` joins
        this drain in full: only *new* scheduling is refused after close,
        a compaction a pre-close flush already asked for still runs."""
        while True:
            self.compact()
            with self._lock:
                if not self._recompact:
                    self._compactor = None
                    return
                self._recompact = False

    def compact_async(self) -> Optional[threading.Thread]:
        """Kick off (or join into) a background compaction.

        The check-then-spawn runs under the store lock, so two racing
        ``flush()`` calls that both cross the threshold agree on one
        compactor thread instead of spawning two; if the live compactor
        is already past their flush it re-runs once more before retiring.
        After :meth:`close` this is a no-op (returns None): close is
        final, and a flush racing with it must not leave a daemon thread
        writing into a directory the caller believes quiesced."""
        with self._lock:
            if self._closed:
                return None
            if self._compactor is not None and self._compactor.is_alive():
                self._recompact = True
                return self._compactor
            thread = threading.Thread(
                target=self._compact_worker, name="segment-compactor",
                daemon=True,
            )
            self._compactor = thread
            thread.start()
        return thread

    def snapshot(self) -> SegmentSnapshot:
        """A lock-free read view of the current manifest."""
        return SegmentSnapshot(self.directory)

    def close(self) -> None:
        """Make the store final: no further flushes or compactions can be
        scheduled, and any in-flight background compaction is joined."""
        with self._lock:
            self._closed = True
            compactor, self._compactor = self._compactor, None
        # Join outside the lock: the compactor itself takes the store lock.
        if compactor is not None:
            compactor.join()

    def __repr__(self) -> str:
        return f"SegmentStore(dir={self.directory!r})"


# ------------------------------------------------------------------- diffs


def diff_segment_dirs(left: str, right: str) -> list[str]:
    """File-level differences between two segment directories.

    Returns human-readable difference lines (empty = byte-identical KBs),
    in file-name order — so the manifest comes first: per-file sha256
    mismatches and files present on only one side.  Every ``repro
    check-determinism`` run prints these, prefixed with the run, when its
    segment files differ from run 0's.
    """
    differences: list[str] = []

    def listing(directory: str) -> dict[str, str]:
        names = {}
        for name in sorted(os.listdir(directory)):
            if name == MANIFEST_NAME or (
                name.startswith("seg-") and not name.endswith(".tmp")
            ):
                with open(os.path.join(directory, name), "rb") as handle:
                    names[name] = hashlib.sha256(handle.read()).hexdigest()
        return names

    left_files, right_files = listing(left), listing(right)
    for name in sorted(set(left_files) | set(right_files)):
        if name not in left_files:
            differences.append(f"only in {right}: {name}")
        elif name not in right_files:
            differences.append(f"only in {left}: {name}")
        elif left_files[name] != right_files[name]:
            differences.append(
                f"{name}: sha256 {left_files[name][:16]}… != {right_files[name][:16]}…"
            )
    return differences
