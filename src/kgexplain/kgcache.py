"""The parsed-graph cache that `kgraph.load_triples` keeps beside a TSV file.

The first load of a regular file parses it and writes the graph beside it
as `.<name>.kgcache`; a later load of the same bytes with the same
delimiter reads that file instead of parsing. `load_triples` imports this
module on first use, so a run that loads no TSV does not.

File format: `_HEAD` (magic, version, the JSON header's length and a crc32
of all that follows), the JSON header, the head, relation and tail columns
as little-endian int64, then the entity and relation names joined by "\n".
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import stat
import struct
import zlib

import numpy as np

from .errors import ContractError
from .kgraph import KnowledgeGraph

_HEAD = struct.Struct("<4sHII")
_MAGIC = b"KGTC"
_VERSION = 1


def load(path, delimiter, parse):
    """The KnowledgeGraph of the file at `path`: read from its cache when the
    cache was written for the same bytes and `delimiter`, else
    `parse(text, path, delimiter)` of its UTF-8 text, which is cached when
    the file is a regular one that still has a name. The key hashes the
    bytes the parse read, in the same single read.
    """
    with open(path, "rb", buffering=0) as raw:
        st = os.fstat(raw.fileno())
        cache = _cache_path(path) if stat.S_ISREG(st.st_mode) and st.st_nlink else None
        g = _read_cache(cache, raw, delimiter) if cache else None
        if g is None:
            if cache:
                raw.seek(0)
            source = _HashingReader(raw)
            with io.TextIOWrapper(io.BufferedReader(source), encoding="utf-8") as text:
                g = parse(text, path, delimiter)
            if cache:
                _write_cache(cache, g, source, delimiter, stat.S_IMODE(st.st_mode))
    return g


class _HashingReader(io.RawIOBase):
    """A binary stream over `raw` that hashes and counts the bytes read."""

    def __init__(self, raw):
        self.raw, self.sha, self.size = raw, hashlib.sha256(), 0

    def readable(self):
        return True

    def readinto(self, b):
        n = self.raw.readinto(b)
        self.sha.update(memoryview(b)[:n])
        self.size += n
        return n

    def key(self):
        """(bytes read, their sha256): the cache key once read to the end."""
        return self.size, self.sha.hexdigest()


def _cache_path(path):
    """Beside the file `path` resolves to, so that "/dev/stdin" redirected
    from a file caches beside that file, not in /dev; None for a file
    descriptor, which names no file."""
    if isinstance(path, int):
        return None
    head, name = os.path.split(os.path.realpath(os.fsdecode(path)))
    return os.path.join(head, f".{name}.kgcache")


def _read_cache(cache, raw, delimiter):
    """The graph `cache` holds if it was written for the bytes that `raw`
    reads with `delimiter`, else None; so is any read error or damage."""
    try:
        with open(cache, "rb") as fh:
            magic, version, meta_len, crc = _HEAD.unpack(fh.read(_HEAD.size))
            if (magic, version) != (_MAGIC, _VERSION):
                return None
            header = fh.read(meta_len)
            meta = json.loads(header)
            n = meta["num_triples"]
            if (meta["delimiter"], meta["source_bytes"], _HEAD.size + meta_len + 24 * n
                    + meta["names_bytes"]) != (delimiter, os.fstat(raw.fileno()).st_size,
                                               os.fstat(fh.fileno()).st_size):
                return None
            source, buf = _HashingReader(raw), bytearray(1 << 20)
            while source.readinto(buf):
                pass
            if source.key() != (meta["source_bytes"], meta["sha256"]):
                return None
            cols = [np.empty(n, dtype="<i8") for _ in range(3)]
            if any(fh.readinto(col) != col.nbytes for col in cols):
                return None
            blob = fh.read()
        if (len(blob), _crc32([header, *cols, blob])) != (meta["names_bytes"], crc):
            return None
        num_entities = meta["num_entities"]
        names = blob.decode().split("\n")  # not splitlines: names may hold "\x85"
        if len(names) != num_entities + meta["num_relations"]:
            return None
        g = KnowledgeGraph(num_entities, meta["num_relations"], *cols, names[:num_entities],
                           names[num_entities:], meta["duplicates_dropped"])
        g._vocab_hashes = tuple(meta["vocab_sha256"])
    except (OSError, ValueError, KeyError, TypeError, struct.error, ContractError):
        return None
    return g


def _crc32(buffers):
    crc = 0
    for buf in buffers:
        crc = zlib.crc32(buf, crc)
    return crc


def _write_cache(cache, g, source, delimiter, mode):
    """Store `g`, parsed from the bytes `source` read, at `cache`: written to
    a new file in the same directory, given the source's read and write
    permission bits `mode` and renamed into place. An OSError leaves no
    cache and no temporary file, and is not raised."""
    import tempfile

    size, sha = source.key()
    cols = [col.astype("<i8", copy=False) for col in (g.heads, g.rels, g.tails)]
    blob = "\n".join(g.entity_names + g.relation_names).encode()
    meta = json.dumps({
        "delimiter": delimiter, "duplicates_dropped": g.duplicates_dropped,
        "names_bytes": len(blob), "num_entities": g.num_entities,
        "num_relations": g.num_relations, "num_triples": g.num_triples, "sha256": sha,
        "source_bytes": size, "vocab_sha256": g.vocab_hashes(),
    }, sort_keys=True, separators=(",", ":")).encode()
    head, name = os.path.split(cache)
    try:
        fd, tmp = tempfile.mkstemp(suffix=".kgcache", prefix=name.removesuffix("kgcache"),
                                   dir=head or os.curdir)
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            fh.write(_HEAD.pack(_MAGIC, _VERSION, len(meta), _crc32([meta, *cols, blob])) + meta)
            for col in cols:
                fh.write(col)  # the column's own buffer, not a copy
            fh.write(blob)
        os.chmod(tmp, mode & 0o666)
        os.replace(tmp, cache)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
