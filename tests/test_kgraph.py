import hashlib
import json
import logging
import logging.handlers
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kgexplain import kgcache, kgraph
from kgexplain.errors import ContractError, DataError, NumericError
from kgexplain.kgraph import (
    ComputationGraph,
    KnowledgeGraph,
    TargetTriple,
    adjacency_power_row,
    extract_computation_graph,
    full_graph,
    k_core_prune,
    load_triples,
)


def kg_from(triples, n_ent=None, n_rel=None):
    arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
    n_ent = n_ent or int(arr[:, [0, 2]].max()) + 1
    n_rel = n_rel or int(arr[:, 1].max()) + 1
    return KnowledgeGraph(n_ent, n_rel, arr[:, 0], arr[:, 1], arr[:, 2])


# -- load_triples -------------------------------------------------------------


def test_load_three_line_file(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("a\tr1\tb\nb\tr1\tc\na\tr2\tc\n")
    g = load_triples(p)
    assert (g.num_entities, g.num_relations, g.num_triples) == (3, 2, 3)
    assert g.entity_names == ["a", "b", "c"]
    assert g.relation_names == ["r1", "r2"]


def test_load_duplicate_line_dropped_with_count(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("a\tr\tb\na\tr\tb\n")
    g = load_triples(p)
    assert g.num_triples == 1
    assert g.duplicates_dropped == 1


def test_load_malformed_line_reports_lineno(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("a\tr\tb\nbroken line\n")
    with pytest.raises(DataError, match=":2"):
        load_triples(p)


def test_load_empty_file(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("\n\n")
    with pytest.raises(DataError):
        load_triples(p)


def test_load_custom_delimiter(tmp_path):
    p = tmp_path / "kg.txt"
    p.write_text("a r1 b\nb r1 c\n")
    g = load_triples(p, delimiter=" ")
    assert g.num_triples == 2


# The per-line loader that `load_triples` replaced, kept as its oracle.

log = logging.getLogger(__name__)


def _utf8_lines(path):
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def oracle_load_triples(path, delimiter="\t") -> KnowledgeGraph:
    ent_index: dict[str, int] = {}
    rel_index: dict[str, int] = {}
    seen = set()
    heads, rels, tails = [], [], []
    dups = 0
    nonempty = 0
    for lineno, line in enumerate(_utf8_lines(path), start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        nonempty += 1
        fields = line.split(delimiter)
        if len(fields) != 3:
            raise DataError(
                f"{path}:{lineno}: expected 3 fields separated by {delimiter!r}, "
                f"got {len(fields)}"
            )
        h = ent_index.setdefault(fields[0], len(ent_index))
        r = rel_index.setdefault(fields[1], len(rel_index))
        t = ent_index.setdefault(fields[2], len(ent_index))
        if (h, r, t) in seen:
            dups += 1
            continue
        seen.add((h, r, t))
        heads.append(h)
        rels.append(r)
        tails.append(t)
    if nonempty == 0:
        raise DataError(f"{path}: no triples found")
    if dups:
        log.warning("%s: dropped %d duplicate triple line(s)", path, dups)
    return KnowledgeGraph(
        len(ent_index),
        len(rel_index),
        np.array(heads, dtype=np.int64),
        np.array(rels, dtype=np.int64),
        np.array(tails, dtype=np.int64),
        list(ent_index),
        list(rel_index),
        duplicates_dropped=dups,
    )


def _load_outcome(load, path, delimiter):
    try:
        g = load(path, delimiter)
    except DataError as exc:
        return "error", str(exc)
    return (g.heads.tolist(), g.rels.tolist(), g.tails.tolist(), g.entity_names,
            g.relation_names, g.duplicates_dropped, g.vocab_hashes())


# Field characters include the ones `str.splitlines` breaks at but file
# iteration does not, and ":" so that a field can run into the "::" delimiter.
_NAME = st.text(alphabet="ab:\u00e9\x0b\x0c\x1c\x85\u2028", max_size=3)
_BLANK = st.text(alphabet=" \t\x0b\x0c\x85\u2028", max_size=3)


@st.composite
def tsv_case(draw):
    """(file bytes, bytes without the non-UTF-8 damage, delimiter)."""
    delimiter = draw(st.sampled_from(["\t", " ", "::"]))
    triple = st.lists(_NAME, min_size=3, max_size=3).map(delimiter.join)
    pool = draw(st.lists(triple, min_size=1, max_size=6))  # small, so lines repeat
    bad = st.lists(_NAME, min_size=1, max_size=5).map(delimiter.join)
    line = st.one_of(st.sampled_from(pool), st.sampled_from(pool), st.sampled_from(pool),
                     _BLANK, bad)
    lines = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r"])),
                          max_size=25))
    text = "".join(body + end for body, end in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(lines[-1][1])]  # no final line break
    clean = text.encode()
    data = clean
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(clean)))
        data = clean[:at] + b"\xff" + clean[at:]
    return data, clean, delimiter


@settings(max_examples=300, deadline=None)
@given(tsv_case(), st.one_of(st.just(kgraph._BLOCK_CHARS), st.sampled_from([1, 2, 3, 5, 8])))
def test_load_triples_matches_per_line_oracle(case, block_chars):
    data, clean, delimiter = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # tiny blocks put block edges mid-line and between "\r" and "\n"
        mp.setattr(kgraph, "_BLOCK_CHARS", block_chars)
        path = Path(tmp) / "kg.tsv"
        path.write_bytes(clean)
        clean_outcome = _load_outcome(oracle_load_triples, path, delimiter)
        path.write_bytes(data)
        want = _load_outcome(oracle_load_triples, path, delimiter)
        got = _load_outcome(load_triples, path, delimiter)
    if data != clean and clean_outcome[0] == "error":
        # a bad line and a non-UTF-8 byte: which one is met first depends
        # on how far ahead the text is decoded
        assert got[0] == want[0] == "error"
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    hnp.arrays(np.int64, st.integers(0, 60), elements=st.integers(-3, 3)),
    hnp.arrays(np.int64, st.integers(0, 60)),
    st.builds(np.full, st.integers(0, 20), st.integers(-2**63, 2**63 - 1),
              st.just(np.int64)),
))
def test_sorted_unique_equals_np_unique(a):
    got = kgraph._sorted_unique(a)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.unique(a))


def _traced_peak(load, path):
    tracemalloc.start()
    try:
        load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_loader_peak_memory_within_per_line_loader(tmp_path):
    rng = np.random.default_rng(0)
    ents = [f"/m/0{i:06x}" for i in range(3000)]
    rels = [f"/rel/domain_{i}/property" for i in range(60)]
    h, r, t = rng.integers(0, 3000, 50_000), rng.integers(0, 60, 50_000), rng.integers(0, 3000, 50_000)
    path = tmp_path / "kg.tsv"
    path.write_text("".join(f"{ents[a]}\t{rels[b]}\t{ents[c]}\n" for a, b, c in zip(h, r, t)))
    assert _traced_peak(load_triples, path) <= _traced_peak(oracle_load_triples, path)


def test_loader_peak_memory_within_three_times_its_columns(tmp_path):
    # FB15k-237's vocabulary sizes, 200,000 random triples and 2,000 lines
    # that repeat one of them; the block parse and the dedupe are the peaks
    rng = np.random.default_rng(1)
    ents = [f"/m/0{i:05x}" for i in range(14541)]
    rels = [f"/rel/domain_{i}/property" for i in range(237)]
    n = 200_000
    h, r, t = rng.integers(0, 14541, n), rng.integers(0, 237, n), rng.integers(0, 14541, n)
    again = rng.integers(0, n, n // 100)
    rows = np.concatenate([np.arange(n), again])
    path = tmp_path / "kg.tsv"
    path.write_text("".join(f"{ents[h[i]]}\t{rels[r[i]]}\t{ents[t[i]]}\n" for i in rows))
    tracemalloc.start()
    try:
        g = load_triples(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.duplicates_dropped >= n // 100
    columns = g.heads.nbytes + g.rels.nbytes + g.tails.nbytes
    assert peak <= 3 * columns


# -- the parsed-graph cache ---------------------------------------------------


def _graph_record(g):
    """Everything a load returns: each column's dtype and values, the sizes,
    both vocabularies, the duplicate count and the vocabulary hashes."""
    return ([(c.dtype, c.tolist()) for c in (g.heads, g.rels, g.tails)], g.num_entities,
            g.num_relations, g.entity_names, g.relation_names, g.duplicates_dropped,
            g.vocab_hashes())


def _logged_load(path, delimiter="\t"):
    """(the load's record or its DataError text, the messages it logged)."""
    handler = logging.handlers.BufferingHandler(capacity=100)
    logger = logging.getLogger("kgexplain.kgraph")
    logger.addHandler(handler)
    try:
        outcome = _graph_record(load_triples(path, delimiter))
    except DataError as exc:
        outcome = ("error", str(exc))
    finally:
        logger.removeHandler(handler)
    return outcome, [record.getMessage() for record in handler.buffer]


def _no_parse(*args):
    raise AssertionError("the file was parsed, not read from its cache")


def _no_cache(*args):
    raise AssertionError("a cache was read or written")


def _cache_of(path):
    return path.parent / f".{path.name}.kgcache"


@st.composite
def messy_tsv_case(draw):
    """(file bytes, delimiter) of lines that repeat, blank lines, "\n",
    "\r\n" and lone "\r" endings, and maybe no final line break."""
    delimiter = draw(st.sampled_from(["\t", " ", "::"]))
    triple = st.lists(_NAME, min_size=3, max_size=3).map(delimiter.join).filter(
        lambda line: line.count(delimiter) == 2)
    pool = draw(st.lists(triple, min_size=1, max_size=6))
    line = st.one_of(st.sampled_from(pool), st.sampled_from(pool), _BLANK)
    lines = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r"])),
                          max_size=25))
    text = "".join(body + end for body, end in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(lines[-1][1])]
    return text.encode(), delimiter


@settings(max_examples=200, deadline=None)
@given(messy_tsv_case())
def test_second_load_reads_the_cache_and_equals_the_parse(case):
    data, delimiter = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "kg.tsv"
        path.write_bytes(data)
        first = _logged_load(path, delimiter)
        if first[0][0] == "error":  # only blank lines: nothing to cache
            assert os.listdir(tmp) == ["kg.tsv"]
            return
        assert sorted(os.listdir(tmp)) == [".kg.tsv.kgcache", "kg.tsv"]
        mp.setattr(kgraph, "_parse_triples", _no_parse)
        second = _logged_load(path, delimiter)
    assert second == first


def test_stale_cache_with_the_same_size_and_mtime_is_parsed_again(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("a\tr\tb\nb\tr\tc\n")
    load_triples(path)
    before = path.stat()
    path.write_text("a\tr\tc\nc\tr\tb\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    want = _graph_record(oracle_load_triples(path))
    assert _graph_record(load_triples(path)) == want
    with pytest.MonkeyPatch.context() as mp:  # the cache now holds the new bytes
        mp.setattr(kgraph, "_parse_triples", _no_parse)
        assert _graph_record(load_triples(path)) == want


def _cut(data, other):
    return [data[:n] for n in range(len(data))]


def _foreign(data, other):
    return [other]


def _flipped(data, other):
    return [data[:n] + bytes([data[n] ^ 1]) + data[n + 1:] for n in range(0, len(data), 7)]


def _padded(data, other):
    return [data + b"\0", b"\0" + data]


@pytest.mark.parametrize("damage", [_cut, _foreign, _flipped, _padded])
def test_damaged_or_foreign_cache_is_parsed_past_and_replaced(tmp_path, damage):
    other = tmp_path / "other.tsv"
    other.write_text("x\ty\tz\n")
    load_triples(other)
    path = tmp_path / "kg.tsv"
    path.write_text("a\tr\tb\nb\tr\tc\na\tr\tb\n")
    load_triples(path)
    data = _cache_of(path).read_bytes()
    want = _logged_load(path)
    for bad in damage(data, _cache_of(other).read_bytes()):
        _cache_of(path).write_bytes(bad)
        assert _logged_load(path) == want
        assert _cache_of(path).read_bytes() == data
    assert sorted(os.listdir(tmp_path)) == [".kg.tsv.kgcache", ".other.tsv.kgcache", "kg.tsv",
                                            "other.tsv"]


def test_cache_of_another_delimiter_is_parsed_past(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("a b\tr\tc d\nc d\tr\ta b\n")  # three fields either way
    for delimiter in ("\t", " ", "\t"):
        assert _graph_record(load_triples(path, delimiter)) == _graph_record(
            oracle_load_triples(path, delimiter))


def _raise_oserror(*args, **kwargs):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fails", ["os.replace", "tempfile.mkstemp"])
def test_failed_cache_write_returns_the_graph_and_leaves_no_file(tmp_path, monkeypatch, fails):
    path = tmp_path / "kg.tsv"
    path.write_text("a\tr\tb\nb\tr\tc\na\tr\tb\n")
    monkeypatch.setattr(fails, _raise_oserror)
    want = _graph_record(oracle_load_triples(path))
    for _ in range(2):
        assert _graph_record(load_triples(path)) == want
        assert os.listdir(tmp_path) == ["kg.tsv"]


def test_cache_sits_beside_the_file_a_link_or_stdin_names_with_its_permissions(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    path = data / "kg.tsv"
    path.write_text("a\tr\tb\nb\tr\tc\n")
    path.chmod(0o640)
    link = tmp_path / "link.tsv"
    link.symlink_to(path)
    want = _graph_record(load_triples(os.fsencode(link)))
    assert sorted(os.listdir(data)) == [".kg.tsv.kgcache", "kg.tsv"]
    assert stat.S_IMODE(os.stat(data / ".kg.tsv.kgcache").st_mode) == 0o640
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kgraph, "_parse_triples", _no_parse)
        assert _graph_record(load_triples(path)) == want
    os.unlink(data / ".kg.tsv.kgcache")
    src = str(Path(kgraph.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with open(path, "rb") as stdin:
        subprocess.run([sys.executable, "-c", "from kgexplain.kgraph import load_triples; "
                        "load_triples('/dev/stdin')"], stdin=stdin, env=env, check=True)
    assert sorted(os.listdir(data)) == [".kg.tsv.kgcache", "kg.tsv"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_pipe_deleted_file_and_descriptor_are_parsed_once_and_not_cached(tmp_path,
                                                                          monkeypatch):
    text = b"a\tr\tb\nb\tr\tc\na\tr\tb\n"
    path = tmp_path / "kg.tsv"
    path.write_bytes(text)
    want = _graph_record(oracle_load_triples(path))
    path.unlink()
    monkeypatch.setattr(kgcache, "_read_cache", _no_cache)
    monkeypatch.setattr(kgcache, "_write_cache", _no_cache)
    read, write = os.pipe()
    os.write(write, text)
    os.close(write)
    try:
        assert _graph_record(load_triples(f"/dev/fd/{read}")) == want
    finally:
        os.close(read)
    with tempfile.TemporaryFile(dir=tmp_path) as fh:  # open, with no name left
        fh.write(text)
        fh.flush()
        assert _graph_record(load_triples(f"/dev/fd/{fh.fileno()}")) == want
    path.write_bytes(text)
    assert _graph_record(load_triples(os.open(path, os.O_RDONLY))) == want  # closes the fd
    assert os.listdir(tmp_path) == ["kg.tsv"]


FB_TRAIN = os.environ.get("KGEXPLAIN_FB15K237_TRAIN", "")


@pytest.mark.skipif(not os.path.exists(FB_TRAIN), reason="FB15k-237 train split not available")
def test_fb15k237_statistics():
    g = load_triples(FB_TRAIN)
    assert g.num_triples == 272115
    assert g.num_entities == 14541
    assert g.num_relations == 237


# -- vocabulary and lookup ----------------------------------------------------


def test_name_lookup_and_close_matches():
    g = kg_from([(0, 0, 1)])
    g.entity_names[:] = ["alpha", "beta"]
    g._name_index = None
    assert g.entity_id("alpha") == 0
    assert g.entity_id(1) == 1
    with pytest.raises(DataError, match="alpha"):
        g.entity_id("alphaa")
    with pytest.raises(DataError):
        g.entity_id(7)


def test_vocab_json_is_sorted():
    g = kg_from([(0, 0, 1)])
    g.entity_names[:] = ["zeta", "ant"]
    g._name_index = None
    assert g.vocab_hashes()[0] == hashlib.sha256(b'{"ant":1,"zeta":0}').hexdigest()


def _vocab_hashes_expression(g):
    return tuple(
        hashlib.sha256(json.dumps(
            {name: i for i, name in enumerate(names)}, sort_keys=True, separators=(",", ":")
        ).encode()).hexdigest()
        for names in (g.entity_names, g.relation_names)
    )


_AWKWARD_NAMES = ['"quoted"', "back\\slash", "\\", "été", "日本", "\x01ctl", "\x1f", "\x7f",
                  "", "12", "007", "1e3", "-0", "null", "\x85", "\u2028", "tab\x0bv", " "]


def test_vocab_hashes_are_the_json_expression_on_awkward_names(tmp_path):
    n = len(_AWKWARD_NAMES)
    path = tmp_path / "kg.tsv"
    path.write_text("".join(f"{_AWKWARD_NAMES[i]}\t{_AWKWARD_NAMES[-1 - i]}\t"
                            f"{_AWKWARD_NAMES[(i + 1) % n]}\n" for i in range(n)),
                    encoding="utf-8")
    parsed = load_triples(path)
    assert parsed.entity_names == _AWKWARD_NAMES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kgraph, "_parse_triples", _no_parse)
        hit = load_triples(path)
    want = _vocab_hashes_expression(parsed)
    assert parsed.vocab_hashes() == hit.vocab_hashes() == want
    assert parsed.vocab_hashes() is parsed.vocab_hashes()  # computed once


def test_duplicate_triples_rejected():
    with pytest.raises(ContractError):
        kg_from([(0, 0, 1), (0, 0, 1)])


# -- extract_computation_graph ------------------------------------------------


def test_extract_path_graph():
    g = kg_from([(0, 0, 1), (1, 0, 2)])  # a->b->c
    gc = extract_computation_graph(g, TargetTriple(0, 0, 2), hops=1)
    assert gc.nodes.tolist() == [0, 1, 2]
    assert gc.num_edges == 2


def test_extract_star_excludes_far_leaves():
    # center 0, leaves 1..5; target between leaves 1 and 2
    g = kg_from([(0, 0, i) for i in range(1, 6)])
    gc = extract_computation_graph(g, TargetTriple(1, 0, 2), hops=1)
    assert gc.nodes.tolist() == [0, 1, 2]


def test_extract_matches_bfs_oracle():
    rng = np.random.default_rng(0)
    for trial in range(5):
        n = 50
        triples = {(int(rng.integers(n)), int(rng.integers(3)), int(rng.integers(n)))
                   for _ in range(120)}
        g = kg_from(sorted(triples), n_ent=n, n_rel=3)
        target = TargetTriple(int(rng.integers(n)), 0, int(rng.integers(n)))
        gc = extract_computation_graph(g, target, hops=2)

        # oracle: undirected BFS balls via adjacency sets
        und = {i: set() for i in range(n)}
        for h, _, t in triples:
            und[h].add(t)
            und[t].add(h)

        def ball(start, radius):
            seen = {start}
            frontier = {start}
            for _ in range(radius):
                frontier = {v for u in frontier for v in und[u]} - seen
                seen |= frontier
            return seen

        expected = ball(target.head, 2) | ball(target.tail, 2)
        assert set(gc.nodes.tolist()) == expected


def test_extract_matches_bfs_oracle_at_hops_1_to_3_with_cuts():
    """The documented rule: nodes by ascending (min undirected distance to
    head or tail, global id) up to max_nodes, head and tail always kept, and
    every stored triple between kept nodes."""
    rng = np.random.default_rng(3)
    for trial in range(150):
        n = int(rng.integers(2, 40))
        triples = {(int(rng.integers(n)), int(rng.integers(3)), int(rng.integers(n)))
                   for _ in range(int(rng.integers(1, 3 * n)))}
        g = kg_from(sorted(triples), n_ent=n, n_rel=3)
        target = TargetTriple(int(rng.integers(n)), 0, int(rng.integers(n)))
        hops = int(rng.integers(1, 4))
        max_nodes = None if trial % 4 == 0 else int(rng.integers(2, n + 2))
        gc = extract_computation_graph(g, target, hops, max_nodes)

        und = {i: set() for i in range(n)}
        for h, _, t in triples:
            und[h].add(t)
            und[t].add(h)
        dist = {target.head: 0, target.tail: 0}
        frontier = set(dist)
        for d in range(1, hops + 1):
            frontier = {v for u in frontier for v in und[u]} - set(dist)
            dist.update(dict.fromkeys(frontier, d))
        ranked = sorted(dist, key=lambda v: (dist[v], v))
        kept = set(ranked if max_nodes is None else ranked[:max_nodes])
        kept |= {target.head, target.tail}
        assert gc.nodes.tolist() == sorted(kept)
        local_edges = sorted((int(gc.nodes[s]), r, int(gc.nodes[d])) for s, r, d in gc.edges)
        assert local_edges == sorted(t for t in triples if t[0] in kept and t[2] in kept)


def oracle_hop_distances(n, edges, sources, max_dist, undirected):
    """Queue BFS over adjacency lists."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        if undirected:
            adj[v].append(u)
    dist = [-1] * n
    queue = deque()
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        if dist[u] == max_dist:
            continue
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@st.composite
def hop_case(draw):
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    # self-loops, parallel edges and isolated nodes all occur
    edges = draw(st.lists(st.tuples(node, node), max_size=30))
    sources = draw(st.lists(node, min_size=1, max_size=3))
    return n, edges, sources, draw(st.integers(0, n + 1)), draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(hop_case())
def test_hop_distances_matches_queue_bfs(case):
    n, edges, sources, max_dist, undirected = case
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    dist = kgraph.hop_distances(n, e[:, 0], e[:, 1], sources, max_dist, undirected)
    assert dist.dtype == np.int64
    assert dist.tolist() == oracle_hop_distances(n, edges, sources, max_dist, undirected)


def test_extract_monotone_in_hops():
    rng = np.random.default_rng(1)
    n = 30
    triples = {(int(rng.integers(n)), 0, int(rng.integers(n))) for _ in range(60)}
    g = kg_from(sorted(triples), n_ent=n, n_rel=1)
    target = TargetTriple(0, 0, 1)
    prev = set()
    for hops in (1, 2, 3):
        nodes = set(extract_computation_graph(g, target, hops).nodes.tolist())
        assert prev <= nodes
        prev = nodes


def test_extract_max_nodes_truncation_policy():
    # head 0, tail 1; nodes 2,3 at distance 1; nodes 4,5 at distance 2
    g = kg_from([(0, 0, 2), (2, 0, 4), (1, 0, 3), (3, 0, 5), (0, 0, 1)])
    gc = extract_computation_graph(g, TargetTriple(0, 0, 1), hops=2, max_nodes=4)
    # kept: head, tail (dist 0), then ids 2, 3 (dist 1, ascending id)
    assert gc.nodes.tolist() == [0, 1, 2, 3]


def test_extract_isolated_target():
    g = kg_from([(2, 0, 3)], n_ent=6, n_rel=1)
    gc = extract_computation_graph(g, TargetTriple(4, 0, 5), hops=2)
    assert gc.nodes.tolist() == [4, 5]
    assert gc.num_edges == 0


def test_extract_validates_args():
    g = kg_from([(0, 0, 1)])
    with pytest.raises(ContractError):
        extract_computation_graph(g, TargetTriple(0, 0, 1), hops=0)
    with pytest.raises(ContractError):
        extract_computation_graph(g, TargetTriple(0, 0, 1), hops=1, max_nodes=1)


def test_extracted_nodes_are_strictly_increasing():
    # so np.searchsorted(gc.nodes, ids) finds the local index of global ids
    rng = np.random.default_rng(3)
    triples = {(int(a), 0, int(b)) for a, b in rng.integers(0, 40, (80, 2))}
    g = kg_from(sorted(triples), n_ent=40, n_rel=1)
    for hops, max_nodes in ((1, None), (2, None), (2, 7)):
        gc = extract_computation_graph(g, TargetTriple(9, 0, 3), hops, max_nodes)
        pruned = k_core_prune(gc, 2)
        for nodes in (gc.nodes, pruned.nodes):
            assert (np.diff(nodes) > 0).all()
        local = np.searchsorted(pruned.nodes, [9, 3])
        assert local.tolist() == [pruned.head_local, pruned.tail_local]


# -- k_core_prune -------------------------------------------------------------


def oracle_k_core(gc: ComputationGraph, k: int):
    """Naive repeated-scan deletion, plus the protected targets."""
    pairs = {(int(s), int(d)) for s, d in zip(gc.pair_src, gc.pair_dst) if s != d}
    alive = set(range(gc.num_nodes))
    changed = True
    while changed:
        changed = False
        deg = {u: 0 for u in alive}
        seen = set()
        for s, d in pairs:
            if s in alive and d in alive:
                key = (min(s, d), max(s, d))
                if key not in seen:
                    seen.add(key)
                    deg[s] += 1
                    deg[d] += 1
        drop = {u for u in alive if deg[u] < k}
        if drop:
            alive -= drop
            changed = True
    return alive | {gc.head_local, gc.tail_local}


def test_kcore_triangle_unchanged():
    g = kg_from([(0, 0, 1), (1, 0, 2), (2, 0, 0)])
    gc = full_graph(g, TargetTriple(0, 0, 2))
    pruned = k_core_prune(gc, 2)
    assert pruned.num_nodes == 3
    assert pruned.num_edges == 3


def test_kcore_star_cascade():
    # center 0 with 5 leaves; targets are leaves 1 and 2
    g = kg_from([(0, 0, i) for i in range(1, 6)])
    gc = full_graph(g, TargetTriple(1, 0, 2))
    pruned = k_core_prune(gc, 2)
    assert set(pruned.nodes.tolist()) == {1, 2}
    assert pruned.num_edges == 0


def test_kcore_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = 40
        triples = {(int(rng.integers(n)), 0, int(rng.integers(n))) for _ in range(90)}
        g = kg_from(sorted(triples), n_ent=n, n_rel=1)
        gc = full_graph(g, TargetTriple(0, 0, 1))
        pruned = k_core_prune(gc, 2)
        expected_local = oracle_k_core(gc, 2)
        assert set(pruned.nodes.tolist()) == {int(gc.nodes[i]) for i in expected_local}


def test_kcore_idempotent():
    rng = np.random.default_rng(3)
    triples = {(int(rng.integers(20)), 0, int(rng.integers(20))) for _ in range(50)}
    g = kg_from(sorted(triples), n_ent=20, n_rel=1)
    gc = full_graph(g, TargetTriple(0, 0, 1))
    once = k_core_prune(gc, 2)
    twice = k_core_prune(once, 2)
    assert once.nodes.tolist() == twice.nodes.tolist()
    assert once.edges == twice.edges


def test_kcore_rejects_negative_k():
    g = kg_from([(0, 0, 1)])
    with pytest.raises(ContractError):
        k_core_prune(full_graph(g, TargetTriple(0, 0, 1)), -1)


# -- adjacency_power_row ------------------------------------------------------


def test_power_row_path():
    g = kg_from([(0, 0, 1), (1, 0, 2)])
    gc = full_graph(g, TargetTriple(0, 0, 2))
    rows = adjacency_power_row(gc, 0, 2)
    assert rows[0].tolist() == [0, 1, 0]
    assert rows[1].tolist() == [0, 0, 1]


def test_power_row_triangle_cycle():
    g = kg_from([(0, 0, 1), (1, 0, 2), (2, 0, 0)])
    gc = full_graph(g, TargetTriple(0, 0, 2))
    rows = adjacency_power_row(gc, 0, 3)
    assert rows[2][0] == 1


def dfs_walk_counts(adj, start, length, n):
    counts = np.zeros(n, dtype=np.int64)

    def walk(node, remaining):
        if remaining == 0:
            counts[node] += 1
            return
        for nxt in adj[node]:
            walk(nxt, remaining - 1)

    walk(start, length)
    return counts


def test_power_row_matches_walk_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = 6
        pairs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(12)}
        g = kg_from([(h, 0, t) for h, t in sorted(pairs)], n_ent=n, n_rel=1)
        gc = full_graph(g, TargetTriple(0, 0, 1))
        adj = [[] for _ in range(n)]
        for h, t in pairs:
            adj[h].append(t)
        rows = adjacency_power_row(gc, 0, 4)
        for length in range(1, 5):
            expected = dfs_walk_counts(adj, 0, length, n)
            assert rows[length - 1].tolist() == expected.tolist()


def test_power_row_matches_dense_matrix_power():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 13))
        pairs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(3 * n)}
        g = kg_from([(h, 0, t) for h, t in sorted(pairs)], n_ent=n, n_rel=1)
        gc = full_graph(g, TargetTriple(0, 0, min(1, n - 1)))
        a = np.zeros((n, n), dtype=np.int64)
        a[gc.pair_src, gc.pair_dst] = 1
        rows = adjacency_power_row(gc, 0, 4)
        power = np.eye(n, dtype=np.int64)
        for length in range(1, 5):
            power = power @ a
            assert rows[length - 1].tolist() == power[0].tolist()


def test_power_row_overflow_guard():
    # complete digraph on 12 nodes with self-loops: counts grow as 12^l
    n = 12
    triples = [(i, 0, j) for i in range(n) for j in range(n)]
    g = kg_from(triples, n_ent=n, n_rel=1)
    gc = full_graph(g, TargetTriple(0, 0, 1))
    with pytest.raises(NumericError):
        adjacency_power_row(gc, 0, 25)


def test_power_row_validates_args():
    g = kg_from([(0, 0, 1)])
    gc = full_graph(g, TargetTriple(0, 0, 1))
    with pytest.raises(ContractError):
        adjacency_power_row(gc, 5, 2)
    with pytest.raises(ContractError):
        adjacency_power_row(gc, 0, 0)
