"""The laws every vector index keeps, written once over the registry.

Five kinds (``bruteforce``, ``ivf``, ``pq``, ``int8``, ``hnsw``) share one
lifecycle in ``repro.api.indexes``; each law below is asserted for all of
them — by phase (cold: rows added, never searched; trained: searched
once; grown: rows added after that) and dtype where that matters.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.index
from repro.api import get_index
from repro.index import RowStore

REPO = Path(__file__).resolve().parents[2]
KINDS = {
    "bruteforce": {},
    "ivf": {"n_lists": 8, "n_probe": 3, "seed": 1},
    "pq": {"n_subspaces": 4, "n_centroids": 16, "seed": 2,
           "refine_dtype": "float16"},
    "int8": {},
    "hnsw": {"m": 4, "ef_construction": 16, "seed": 3},
}
PHASES = ("cold", "trained", "grown")
TRAINS = ("ivf", "pq", "int8")


def rows(n, seed, dtype=np.float64, dim=8):
    return np.random.default_rng(seed).standard_normal((n, dim)).astype(dtype)


def build(kind, phase, dtype=np.float64):
    index = get_index(kind, **KINDS[kind])
    index.add(rows(400, 0, dtype))
    if phase != "cold":
        index.search(rows(2, 1, dtype), 3)
    if phase == "grown":
        index.add(rows(100, 2, dtype))  # 500 < retrain_factor * 400
    return index


def train_count(index):
    return getattr(index, "train_count", 0)


def same_answers(got, want, queries=rows(6, 9)):
    for ours, theirs in zip(got.search(queries, 5), want.search(queries, 5)):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


@pytest.fixture
def kmeans_calls(monkeypatch):
    """Calls of the module globals the structures train through."""
    calls = []
    for module in (repro.index.pq, repro.index.ivf):
        real = module.kmeans
        monkeypatch.setattr(
            module, "kmeans",
            lambda *args, _real=real, **kw: calls.append(1) or _real(*args, **kw))
    return calls


# ----------------------------------------------------------------------
# (a) restore(state(x)) is x
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("kind", KINDS)
def test_restore_answers_with_the_bytes_of_the_saved_index(
        kind, phase, dtype, kmeans_calls):
    saved = build(kind, phase, dtype)
    meta, arrays = saved.state()
    del kmeans_calls[:]
    restored = type(saved).restore(json.loads(json.dumps(meta)), arrays)
    assert kmeans_calls == []  # loading never pays a k-means
    assert len(restored) == len(saved)
    assert restored.stats()["memory_bytes"] == saved.stats()["memory_bytes"]
    assert train_count(restored) == train_count(saved)
    same_answers(restored, saved)


# ----------------------------------------------------------------------
# (b) reading an index never trains it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
def test_len_memory_stats_and_state_leave_a_cold_index_cold(
        kind, kmeans_calls):
    index = build(kind, "cold")
    assert len(index) == 400
    assert index.memory_bytes > 0
    stats = index.stats()
    index.state()
    assert train_count(index) == 0 and kmeans_calls == []
    assert stats.get("trained", False) is False


# ----------------------------------------------------------------------
# (c) what is resident is reported
# ----------------------------------------------------------------------
@pytest.mark.parametrize("phase", ["trained", "grown"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_trained_index_holds_rows_only_inside_its_structure(kind, phase):
    index = build(kind, phase)
    held = {name: value for name, value in vars(index).items()
            if isinstance(value, (np.ndarray, RowStore)) and len(value)}
    assert held == {}  # no float copy beside the structure
    structure, = [value for value in vars(index).values()
                  if type(value).__module__.startswith("repro.index.")]
    assert index.stats()["memory_bytes"] == structure.memory_bytes


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_reports_the_one_stats_core(kind):
    empty, full = get_index(kind), build(kind, "trained")
    assert "bytes_per_vector" not in empty.stats()
    stats = full.stats()
    assert {"name", "size", "exact", "memory_bytes",
            "bytes_per_vector"} <= stats.keys()
    assert stats["bytes_per_vector"] == round(stats["memory_bytes"] / 400, 2)
    assert ("train_count" in stats) == ("trained" in stats) == (kind in TRAINS)


# ----------------------------------------------------------------------
# (d) the snapshot layout, pinned as literals
# ----------------------------------------------------------------------
IVF_META = {"type", "n_lists", "n_probe", "seed", "retrain_factor"}
PQ_META = {"type", "n_subspaces", "n_centroids", "refine_factor",
           "refine_dtype", "train_sample", "seed", "trained"}
HNSW_META = {"type", "m", "ef_construction", "ef_search", "seed",
             "built", "dim", "graph"}
LAYOUT = {  # kind -> (cold meta, cold arrays, trained meta, trained arrays)
    "bruteforce": ({"type"}, {"data"}, {"type"}, {"data"}),
    "ivf": (IVF_META, {"vectors"},
            IVF_META | {"trained", "dim"}, {"vectors", "centers", "assign"}),
    "pq": (PQ_META, {"buffer"},
           PQ_META | {"dim"},
           {"codebooks", "codes", "tail"}),
    "int8": ({"type", "train_sample", "trained"}, {"buffer"},
             {"type", "train_sample", "trained", "dim"},
             {"codes", "scale", "offset"}),
    "hnsw": (HNSW_META, {"data", "levels", "link_counts", "links_flat"},
             HNSW_META, {"data", "levels", "link_counts", "links_flat"}),
}


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("kind", KINDS)
def test_state_keeps_the_snapshot_layout(kind, phase):
    cold_meta, cold_arrays, trained_meta, trained_arrays = LAYOUT[kind]
    meta, arrays = build(kind, phase).state()
    assert meta["type"] == kind
    assert meta.keys() >= (cold_meta if phase == "cold" else trained_meta)
    assert arrays.keys() == (cold_arrays if phase == "cold" else trained_arrays)


def test_a_flat_pq_writes_no_coarse_or_tail_arrays():
    index = get_index("pq", n_subspaces=4, n_centroids=16)
    index.add(rows(100, 0))
    index.search(rows(1, 1), 1)
    assert index.state()[1].keys() == {"codebooks", "codes"}


ROWS_ONLY = {  # what these two kinds wrote before they snapshot a structure
    # (and while every vector index still named its metric)
    "bruteforce": ({"type": "bruteforce", "metric": "l1"}, "data"),
    "ivf": ({"type": "ivf", "metric": "l1", "n_lists": 8, "n_probe": 3,
             "seed": 1, "retrain_factor": 2.0}, "vectors"),
}


@pytest.mark.parametrize("kind", ROWS_ONLY)
def test_a_rows_only_snapshot_still_loads(kind, kmeans_calls):
    """Such a file restores as if the rows had just been added: ``ivf``
    trains lazily on its first search, exactly as it did."""
    meta, key = ROWS_ONLY[kind]
    assert meta.keys() == LAYOUT[kind][0] | {"metric"}
    fresh = build(kind, "cold")
    restored = type(fresh).restore(meta, {key: rows(400, 0)})
    assert len(restored) == 400 and train_count(restored) == 0
    assert kmeans_calls == []
    same_answers(restored, fresh)
    assert train_count(restored) == train_count(fresh)


# ----------------------------------------------------------------------
# Ingest before the first search is linear, and invisible
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
def test_many_small_adds_equal_one_big_add_before_any_search(kind):
    data = rows(3200, 4)
    whole, pieces = (get_index(kind, **KINDS[kind]) for _ in range(2))
    whole.add(data)
    for start in range(0, len(data), 16):
        pieces.add(data[start:start + 16])
    (want_meta, want_arrays), (got_meta, got_arrays) = (
        whole.state(), pieces.state())
    assert got_meta == want_meta
    assert got_arrays.keys() == want_arrays.keys()
    for key, want in want_arrays.items():
        assert len(got_arrays[key]) == len(want), key
        np.testing.assert_array_equal(got_arrays[key], want, err_msg=key)
    assert len(pieces) == len(whole) == 3200
    assert pieces.stats()["memory_bytes"] == whole.stats()["memory_bytes"]
    same_answers(pieces, whole)


def test_ivf_retrains_from_its_own_lists_in_id_order():
    data, more = rows(120, 5), rows(150, 6)
    index = get_index("ivf", **KINDS["ivf"])
    index.add(data)
    index.search(data[:1], 1)
    index.add(more)  # 270 > 2 * 120: the quantizer is outgrown
    assert not index.stats()["trained"]
    np.testing.assert_array_equal(index.state()[1]["vectors"],
                                  np.concatenate([data, more]))
    once = get_index("ivf", **KINDS["ivf"])
    once.add(np.concatenate([data, more]))
    same_answers(index, once)
    assert index.train_count == 2


# ----------------------------------------------------------------------
# Declarations: the keyword table is the signature
# ----------------------------------------------------------------------
def test_the_keywords_and_defaults_are_the_15_there_are():
    settable = {kind: vars(get_index(kind)) for kind in (*KINDS, "segment")}
    want = {
        "bruteforce": {},
        "ivf": {"n_lists": 16, "n_probe": 4, "seed": 0,
                "retrain_factor": 2.0},
        "pq": {"n_subspaces": 16, "n_centroids": 256, "refine_factor": 4,
               "refine_dtype": None, "train_sample": 20000, "seed": 0},
        "int8": {"train_sample": 65536},
        "hnsw": {"m": 16, "ef_construction": 64, "ef_search": 32,
                 "seed": 0},
        "segment": {},
    }
    for kind, keywords in want.items():
        public = {key: value for key, value in settable[kind].items()
                  if not key.startswith("_") and key != "train_count"}
        assert public == keywords, kind
    assert sum(map(len, want.values())) == 15


@pytest.mark.parametrize("kind", KINDS)
def test_an_unknown_keyword_is_a_type_error(kind):
    with pytest.raises(TypeError, match="no_such_knob"):
        get_index(kind, no_such_knob=1)


@pytest.mark.parametrize("kind,keyword", [
    ("ivf", "retrain_factor"), ("pq", "train_sample"),
    ("int8", "train_sample")])
def test_a_knob_below_one_is_a_value_error(kind, keyword):
    with pytest.raises(ValueError, match=keyword):
        get_index(kind, **{keyword: 0})


# ----------------------------------------------------------------------
# (e) the storage format lives in repro.index
# ----------------------------------------------------------------------
def private_names_of_the_structures():
    names = set()
    for path in (REPO / "src/repro/index").glob("*.py"):
        for owner in ast.walk(ast.parse(path.read_text())):
            if not isinstance(owner, ast.ClassDef):
                continue
            names |= {
                node.attr for node in ast.walk(owner)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                and node.attr.startswith("_")}
    return names


def test_the_adapters_touch_no_private_name_of_a_structure():
    private = private_names_of_the_structures()
    assert {"_codes", "_lists", "_store", "_max_level"} <= private
    adapters = ast.parse((REPO / "src/repro/api/indexes.py").read_text())
    reached = sorted(
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(adapters)
        if isinstance(node, ast.Attribute) and node.attr in private
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls")))
    assert reached == []


# ----------------------------------------------------------------------
# (f) one span per call under the end-to-end benchmark's shims
# ----------------------------------------------------------------------
SPAN_SCRIPT = """
import json, sys
import numpy as np
from benchmarks.e2e.spans import Tracer, install
tracer = Tracer()
install(tracer)
from repro.api import get_index
data = np.random.default_rng(0).standard_normal((64, 8))
seen = {}
for kind, kwargs in json.loads(sys.argv[1]).items():
    del tracer.spans[:]
    index = get_index(kind, **kwargs)
    index.add(data)
    index.search(data[:2], 3)
    seen[kind] = [row[3] for row in tracer.spans
                  if row[3] in ("index.add", "index.search")]
print(json.dumps(seen))
"""


def test_the_benchmark_shims_record_one_span_per_call():
    # a subprocess: the shims patch the classes for good
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", SPAN_SCRIPT, json.dumps(KINDS)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        kind: ["index.add", "index.search"] for kind in KINDS}
