"""Knowledge-graph storage, ego-graph extraction, k-core pruning, walk counts.

Triples are stored as parallel int64 columns. `hop_distances` is the
package's one breadth-first search, over any edge list: ego-graph distances
treat the triples as undirected edges, while stored edges keep their
original direction.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import kernels
from .errors import ContractError, DataError, NumericError, at_least

log = logging.getLogger(__name__)

_INT32_MAX = np.iinfo(np.int32).max
_INT64_MAX = np.iinfo(np.int64).max
# Characters `load_triples` parses at a time; the strings of one block's lines
# are alive together. On a 272k-line file larger blocks were no faster, and
# four back-to-back loads in a fresh interpreter (34 MiB after its imports)
# peaked at 63 MiB RSS at this size, 75 MiB at 1M characters and 117 MiB at
# 4M (one load: 53, 66 and 104 MiB; CPython 3.11, numpy 2.4).
_BLOCK_CHARS = 1 << 18


def _run_starts(s):
    """Mask of the entries of sorted `s` that differ from their predecessor."""
    starts = np.empty(s.size, dtype=bool)
    starts[:1] = True
    np.not_equal(s[1:], s[:-1], out=starts[1:])
    return starts


def _sorted_unique(a):
    """`np.unique(a)` for a 1-D integer array, by sorting: numpy 2 sends int64
    `np.unique` through a hash table that is tens of times slower."""
    s = np.sort(a)
    return s[_run_starts(s)]


def _triple_keys(heads, rels, tails, num_relations, num_entities):
    """(h * R + r) * E + t per triple, built in one int64 buffer."""
    key = np.multiply(heads, num_relations, dtype=np.int64)
    key += rels
    key *= num_entities
    key += tails
    return key


def _csr_indptr(src, n):
    """CSR row pointers over pairs already sorted by source."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr


def hop_distances(n, src, dst, sources, max_dist, undirected=False):
    """Hops from the nearest of `sources` to each of the n nodes along the
    edges src -> dst (either way when `undirected`), -1 beyond `max_dist`.

    Breadth-first by frontier masks: each round looks at every edge once.
    """
    dist = np.full(n, -1, dtype=np.int64)
    dist[sources] = 0
    frontier = dist == 0
    for d in range(1, max_dist + 1):
        reached = np.zeros(n, dtype=bool)
        reached[dst[frontier[src]]] = True
        if undirected:
            reached[src[frontier[dst]]] = True
        reached &= dist < 0
        if not reached.any():
            break
        dist[reached] = d
        frontier = reached
    return dist


@dataclass(frozen=True)
class TargetTriple:
    """The triple whose prediction is being explained."""

    head: int
    relation: int
    tail: int
    label: str = "factual"

    def __post_init__(self):
        if self.label not in ("factual", "counterfactual"):
            raise ContractError(f"label must be factual or counterfactual, got {self.label!r}")

    def validate(self, g: "KnowledgeGraph"):
        if not (0 <= self.head < g.num_entities and 0 <= self.tail < g.num_entities):
            raise ContractError("target entity id out of range")
        if not (0 <= self.relation < g.num_relations):
            raise ContractError("target relation id out of range")


class KnowledgeGraph:
    """Immutable triple store with vocabularies."""

    def __init__(
        self,
        num_entities,
        num_relations,
        heads,
        rels,
        tails,
        entity_names=None,
        relation_names=None,
        duplicates_dropped=0,
    ):
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.heads = np.asarray(heads, dtype=np.int64)
        self.rels = np.asarray(rels, dtype=np.int64)
        self.tails = np.asarray(tails, dtype=np.int64)
        self.entity_names = list(entity_names) if entity_names is not None else [
            f"e{i}" for i in range(self.num_entities)
        ]
        self.relation_names = list(relation_names) if relation_names is not None else [
            f"r{i}" for i in range(self.num_relations)
        ]
        self.duplicates_dropped = int(duplicates_dropped)
        self._validate()
        self._name_index = None
        self._vocab_hashes = None

    def _validate(self):
        if len(self.heads) != len(self.rels) or len(self.heads) != len(self.tails):
            raise ContractError("triple columns must have equal length")
        if len(self.entity_names) != self.num_entities:
            raise ContractError("entity_names length mismatch")
        if len(self.relation_names) != self.num_relations:
            raise ContractError("relation_names length mismatch")
        for arr, bound, what in (
            (self.heads, self.num_entities, "head"),
            (self.rels, self.num_relations, "relation"),
            (self.tails, self.num_entities, "tail"),
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= bound):
                raise ContractError(f"{what} id out of range")
        key = _triple_keys(self.heads, self.rels, self.tails, self.num_relations,
                           self.num_entities)
        key.sort()
        if not _run_starts(key).all():
            raise ContractError("duplicate (head, relation, tail) triples")

    # -- vocabulary -------------------------------------------------------

    @property
    def num_triples(self):
        return len(self.heads)

    @property
    def triples(self):
        return list(zip(self.heads.tolist(), self.rels.tolist(), self.tails.tolist()))

    def name_index(self):
        """(entity name -> id, relation name -> id), built on first use."""
        if self._name_index is None:
            self._name_index = (
                {name: i for i, name in enumerate(self.entity_names)},
                {name: i for i, name in enumerate(self.relation_names)},
            )
        return self._name_index

    def entity_id(self, name_or_id):
        return self._lookup(name_or_id, self.name_index()[0], self.num_entities, "entity")

    def relation_id(self, name_or_id):
        return self._lookup(name_or_id, self.name_index()[1], self.num_relations, "relation")

    @staticmethod
    def _lookup(key, index, bound, kind):
        if isinstance(key, (int, np.integer)):
            if not 0 <= key < bound:
                raise DataError(f"{kind} id {key} out of range [0, {bound})")
            return int(key)
        if key in index:
            return index[key]
        try:
            as_int = int(key)
        except ValueError:
            as_int = None
        if as_int is not None and 0 <= as_int < bound:
            return as_int
        import difflib

        close = difflib.get_close_matches(str(key), list(index), n=5, cutoff=0.4)
        raise DataError(f"unknown {kind} {key!r}; closest matches: {close}")

    def vocab_hashes(self):
        """sha256 of each vocabulary's name -> id map as compact, key-sorted
        JSON: (entities, relations), computed on first use. Checkpoints store
        these bytes' hashes."""
        if self._vocab_hashes is None:
            self._vocab_hashes = tuple(
                hashlib.sha256(json.dumps(
                    {name: i for i, name in enumerate(names)}, sort_keys=True,
                    separators=(",", ":"),
                ).encode()).hexdigest()
                for names in (self.entity_names, self.relation_names)
            )
        return self._vocab_hashes


def _line_blocks(fh, path):
    r"""The lines of text stream `fh` in blocks of about `_BLOCK_CHARS` characters.

    Lines end at "\n" only, after the universal-newline translation of
    `open` (so "\r\n" and a lone "\r" end a line too), exactly as iterating
    the file splits them; `str.splitlines` would also split at "\v", "\f",
    "\x1c"-"\x1e", "\x85", "\u2028" and "\u2029". The terminators are
    dropped, and a final line without one is the last block.
    """
    parts = []  # the pieces of the line the last read ended in
    try:
        while chunk := fh.read(_BLOCK_CHARS):
            end = chunk.rfind("\n")
            if end < 0:
                parts.append(chunk)
                continue
            parts.append(chunk[:end])
            yield "".join(parts).split("\n")
            parts = [chunk[end + 1 :]]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    last = "".join(parts)
    if last:
        yield [last]


def _intern(names, index):
    """Ids of `names`, int32 while they fit; names not yet in `index` get the
    next ids in first-appearance order."""
    new = [name for name in dict.fromkeys(names) if name not in index]
    index.update(zip(new, range(len(index), len(index) + len(new))))
    dtype = np.int32 if len(index) <= _INT32_MAX + 1 else np.int64
    return np.fromiter(map(index.__getitem__, names), dtype=dtype, count=len(names))


def load_triples(path, delimiter="\t") -> KnowledgeGraph:
    """Parse a head<delim>relation<delim>tail file into a KnowledgeGraph.

    Vocabularies are assigned in first-appearance order; exact duplicate
    lines are dropped with a counted warning. Blank and whitespace-only
    lines are skipped. The file is parsed one block of lines at a time.

    A regular file's parse is cached beside it as `.<name>.kgcache`, keyed
    by the sha256 of the bytes parsed and the delimiter, and a later load
    of the same bytes reads the cache instead. A cache that does not match,
    cannot be read or cannot be written is parsed past, never an error.
    Pipes, other non-regular files, deleted files and file descriptors
    are read once and never cached.
    """
    if not delimiter or "\n" in delimiter or "\r" in delimiter:
        raise ContractError(
            f"delimiter must be non-empty and contain no line break, got {delimiter!r}"
        )
    from . import kgcache  # imported on first use: runs that load no TSV skip it

    g = kgcache.load(path, delimiter, _parse_triples)
    if g.duplicates_dropped:
        log.warning("%s: dropped %d duplicate triple line(s)", path, g.duplicates_dropped)
    return g


def _parse_triples(fh, path, delimiter):
    """The KnowledgeGraph of text stream `fh`, read from `path`."""
    ent_index: dict[str, int] = {}
    rel_index: dict[str, int] = {}
    ent_ids, rel_ids = [], []
    first_lineno = 1
    for lines in _line_blocks(fh, path):
        body = list(filter(str.strip, lines))
        if body:
            if set(map(str.count, body, repeat(delimiter))) != {2}:
                for lineno, line in enumerate(lines, start=first_lineno):
                    if line.strip() and line.count(delimiter) != 2:
                        raise DataError(
                            f"{path}:{lineno}: expected 3 fields separated by "
                            f"{delimiter!r}, got {line.count(delimiter) + 1}"
                        )
            # No field holds "\n" and the delimiter holds none, so splitting
            # the "\n"-joined body at the delimiter leaves each line's tail
            # glued to the next line's head: [h1, r1, t1\nh2, r2, ..., tn].
            fields = "\n".join(body).split(delimiter)
            rel_ids.append(_intern(fields[1::2], rel_index))
            ent_ids.append(_intern("\n".join(fields[0::2]).split("\n"), ent_index))
        first_lineno += len(lines)
    if not ent_ids:
        raise DataError(f"{path}: no triples found")
    # Each array below is dropped as soon as the next step no longer needs
    # it, so the loader peaks near twice the graph's own int64 columns.
    ents = np.concatenate(ent_ids)
    ent_ids.clear()
    rels = np.concatenate(rel_ids)
    rel_ids.clear()
    keep = _first_lines(ents[0::2], rels, ents[1::2], len(rel_index), len(ent_index))
    dups = rels.size - keep.size
    heads = ents[0::2][keep].astype(np.int64)
    tails = ents[1::2][keep].astype(np.int64)
    del ents
    rels = rels[keep].astype(np.int64)
    del keep
    return KnowledgeGraph(
        len(ent_index),
        len(rel_index),
        heads,
        rels,
        tails,
        list(ent_index),
        list(rel_index),
        duplicates_dropped=dups,
    )


def _first_lines(heads, rels, tails, num_relations, num_entities):
    """Each distinct (h, r, t)'s first line index, in file order: one unstable
    argsort, the least index in each run of equal keys, and a sort of those."""
    key = _triple_keys(heads, rels, tails, num_relations, num_entities)
    order = np.argsort(key)
    runs = np.flatnonzero(_run_starts(key[order]))
    del key
    keep = np.minimum.reduceat(order, runs)
    keep.sort()
    return keep


class ComputationGraph:
    """Pruned L-hop ego-graph around a target pair, in local indices.

    Triples are lexsorted by (src, dst, rel); distinct (src, dst) pairs
    are therefore contiguous, and ``pair_indptr`` delimits each pair's
    triple range. The pairs form the binary local adjacency, sorted by
    source: ``adj_indptr`` delimits each node's range of outgoing pairs.
    """

    def __init__(self, nodes, src, rel, dst, head_local, tail_local):
        self.nodes = np.asarray(nodes, dtype=np.int64)
        order = np.lexsort((rel, dst, src))
        self.src = np.asarray(src, dtype=np.int64)[order]
        self.rel = np.asarray(rel, dtype=np.int64)[order]
        self.dst = np.asarray(dst, dtype=np.int64)[order]
        self.head_local = int(head_local)
        self.tail_local = int(tail_local)
        n = len(self.nodes)
        first = _run_starts(self.src * n + self.dst)
        starts = np.flatnonzero(first)
        self.pair_indptr = np.concatenate([starts, [self.src.size]]).astype(np.int64)
        self.pair_src = self.src[starts]
        self.pair_dst = self.dst[starts]
        self.pair_index = np.cumsum(first, dtype=np.int64) - 1
        self.adj_indptr = _csr_indptr(self.pair_src, n)
        self.in_degree = np.bincount(self.dst, minlength=n).astype(np.int64)

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_edges(self):
        return len(self.src)

    @property
    def num_pairs(self):
        return len(self.pair_src)

    @property
    def edges(self):
        return list(zip(self.src.tolist(), self.rel.tolist(), self.dst.tolist()))

    def undirected_degrees(self, alive=None):
        """Distinct-neighbour degree over the binary pair graph, self-loops excluded."""
        n = self.num_nodes
        if alive is None:
            alive = np.ones(n, dtype=bool)
        keep = alive[self.pair_src] & alive[self.pair_dst] & (self.pair_src != self.pair_dst)
        s, d = self.pair_src[keep], self.pair_dst[keep]
        und = _sorted_unique(np.minimum(s, d) * n + np.maximum(s, d))
        deg = np.zeros(n, dtype=np.int64)
        np.add.at(deg, und // n, 1)
        np.add.at(deg, und % n, 1)
        return deg

    def target_rows(self, target: TargetTriple):
        """(head_local, tail_local), once they are checked to be the target's
        head and tail: whatever explains or scores a target reads it there."""
        i, k = self.head_local, self.tail_local
        if not (0 <= min(i, k) and max(i, k) < self.num_nodes
                and (self.nodes[i], self.nodes[k]) == (target.head, target.tail)):
            raise ContractError("target endpoints are not the computation graph's head and tail")
        return i, k

    def triple_index_of(self, head_local, relation, tail_local):
        """Index of a local triple, or -1 when absent."""
        hit = np.flatnonzero(
            (self.src == head_local) & (self.rel == relation) & (self.dst == tail_local)
        )
        return int(hit[0]) if hit.size else -1

    def without_triples(self, drop_indices) -> "ComputationGraph":
        """Same node set with the given triple rows removed."""
        keep = np.ones(self.num_edges, dtype=bool)
        keep[np.asarray(list(drop_indices), dtype=np.int64)] = False
        return ComputationGraph(
            self.nodes,
            self.src[keep],
            self.rel[keep],
            self.dst[keep],
            self.head_local,
            self.tail_local,
        )

    def subgraph(self, alive) -> "ComputationGraph":
        """Re-indexed graph over the surviving nodes (order preserved)."""
        alive = np.asarray(alive, dtype=bool)
        remap = -np.ones(self.num_nodes, dtype=np.int64)
        remap[alive] = np.arange(alive.sum())
        keep = alive[self.src] & alive[self.dst]
        return ComputationGraph(
            self.nodes[alive],
            remap[self.src[keep]],
            self.rel[keep],
            remap[self.dst[keep]],
            remap[self.head_local],
            remap[self.tail_local],
        )


def check_ego_settings(hops=1, k_core=0, max_nodes=None,
                       names=("hops", "k_core", "max_nodes")):
    """ContractError naming the first ego-graph setting below its bound:
    hops >= 1, k_core >= 0, and max_nodes >= 2 unless None (no cap). `names`
    are the caller's names for the three; the defaults are in bounds."""
    for name, value, low in zip(names, (hops, k_core, max_nodes), (1, 0, 2)):
        at_least(name, value, low)


def extract_computation_graph(
    g: KnowledgeGraph, target: TargetTriple, hops: int, max_nodes: int | None = None
) -> ComputationGraph:
    """Union of the two hop-balls around the target pair, truncated to max_nodes.

    Truncation keeps nodes by ascending (min distance to either endpoint,
    global id); head and tail are always retained. Reachability is
    undirected; stored edges keep their direction.
    """
    check_ego_settings(hops=hops, max_nodes=max_nodes)
    target.validate(g)
    dist = hop_distances(g.num_entities, g.heads, g.tails, [target.head, target.tail], hops,
                         undirected=True)
    cand = np.flatnonzero(dist >= 0)
    ranked = cand[np.lexsort((cand, dist[cand]))]
    # head and tail are the only nodes at distance 0, so the cut keeps them
    nodes = np.sort(ranked[:max_nodes])
    member = np.zeros(g.num_entities, dtype=bool)
    member[nodes] = True
    keep = member[g.heads] & member[g.tails]
    local = -np.ones(g.num_entities, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    return ComputationGraph(
        nodes,
        local[g.heads[keep]],
        g.rels[keep],
        local[g.tails[keep]],
        local[target.head],
        local[target.tail],
    )


def full_graph(g: KnowledgeGraph, target: TargetTriple | None = None) -> ComputationGraph:
    """The whole KG as a ComputationGraph (used for model training)."""
    nodes = np.arange(g.num_entities, dtype=np.int64)
    head = target.head if target is not None else 0
    tail = target.tail if target is not None else min(1, g.num_entities - 1)
    return ComputationGraph(nodes, g.heads, g.rels, g.tails, head, tail)


def k_core_prune(gc: ComputationGraph, k: int) -> ComputationGraph:
    """Iteratively delete nodes of undirected degree < k until fixpoint, then
    re-admit the target head and tail (they never leave the output, but do
    not prop up other nodes' degrees while pruning)."""
    check_ego_settings(k_core=k)
    alive = np.ones(gc.num_nodes, dtype=bool)
    while True:
        deg = gc.undirected_degrees(alive)
        drop = alive & (deg < k)
        if not drop.any():
            break
        alive &= ~drop
    alive[gc.head_local] = True
    alive[gc.tail_local] = True
    return gc.subgraph(alive)


def adjacency_power_row(gc: ComputationGraph, start: int, max_len: int):
    """Directed walk counts from `start`: entry k of the l-th vector counts
    length-l walks start->k over the binary pair adjacency. Exact int64
    arithmetic with an overflow guard.
    """
    if not 0 <= start < gc.num_nodes:
        raise ContractError("start index out of range")
    at_least("max_len", max_len, 1)
    n = gc.num_nodes
    a = np.zeros(n, dtype=np.int64)
    sel = gc.pair_src == start
    a[gc.pair_dst[sel]] = 1
    rows = [a]
    for _ in range(max_len - 1):
        prev = rows[-1]
        peak = int(prev.max()) if prev.size else 0
        if peak > _INT64_MAX // max(n, 1):
            raise NumericError("walk count would overflow int64")
        rows.append(kernels.walk_step(prev, gc.pair_src, gc.pair_dst, n))
    return rows
