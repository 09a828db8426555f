"""The import graph follows the layering: a process loads what it serves.

Each case starts a fresh interpreter, imports one entry point or plays
one serving role, and reads ``sys.modules`` back — module *sets*, not
wall-clock, so nothing here can flake. scipy (the heuristic measures'
``cdist``) and networkx (``GridGraph.to_networkx``) load on the call that
needs them, never on import. ``repro``, ``repro.api``, ``repro.index``,
``repro.trajectory``, ``repro.core``, ``repro.nn`` and
``repro.datasets`` resolve their names on first use (PEP 562,
:mod:`repro._lazy`), and the index adapters import a structure when they
first build one. So each serving role has a law on what it never loads:
a shard worker that is fed vectors loads no model code, no HTTP stack,
no index structure but its own, no measure, no trajectory preprocessing
and no ``hashlib``; any shard worker, TCP or local, loads the worker
side (``repro.api.shard``) and none of the owner side (the engine and
query queue, the coordinator, the remote client and server, the
gateway); a trajcl coordinator loads no index structure, measure or
training-only module. Fault injection is test code (``tests/chaos.py``),
which no product module imports. ``make bench-startup``
records what this buys in seconds and MB.
"""

import ast
import functools
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = [
    "repro", "repro.index", "repro.trajectory", "repro.api",
    "repro.api.cluster", "repro.api.gateway", "repro.cli",
]

#: what the children inherit of this process's environment: with
#: ``PYTHONDONTWRITEBYTECODE`` set here, they write no ``.pyc`` either
INHERITED = ("PYTHONDONTWRITEBYTECODE",)


def fresh_interpreter(code, **environment):
    """Run ``code`` in a new interpreter; it prints one JSON document."""
    inherited = {name: os.environ[name] for name in INHERITED
                 if name in os.environ}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
                          **inherited, **environment},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded(modules, *packages):
    """The loaded modules that are, or live under, one of ``packages``."""
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in packages)
    )


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_entry_point_loads_no_scipy_or_networkx(entry_point):
    modules = fresh_interpreter(
        f"import json, sys, {entry_point}; print(json.dumps(sorted(sys.modules)))"
    )
    assert entry_point in modules
    assert loaded(modules, "scipy", "networkx") == []
    if entry_point.startswith("repro.api"):
        assert loaded(modules, "repro.baselines", "repro.eval",
                      "repro.datasets") == []
    if entry_point == "repro.index":
        assert loaded(modules, "repro.api", "repro.baselines") == []
    if entry_point in ALONE:
        assert loaded(modules, entry_point) == [entry_point,
                                                *ALONE[entry_point]]
    if entry_point == "repro.api.cluster":
        # the worker's module: the coordinator resolves on first use
        assert loaded(modules, *OWNER_SIDE) == []


def test_a_fresh_interpreter_writes_no_bytecode_when_told_not_to(
        tmp_path, monkeypatch):
    """A child must not drop the variable: a tree with ``.pyc`` files
    skips compilation in every later process and reads lower RSS and a
    faster start-up than a fresh clone of the very same code."""
    tree = tmp_path / "src"
    shutil.copytree(SRC / "repro", tree / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    fresh_interpreter("import repro.api.cluster; print('{}')",
                      PYTHONPATH=str(tree))
    assert sorted(tree.rglob("__pycache__")) == []


def test_no_module_loads_scipy_or_networkx_on_import():
    """Not only the entry points: importing any module of the package
    (``repro.graph``, ``repro.measures``, the baselines that load them)
    loads neither library. The first module that does is named."""
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        .removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py") if path.stem != "__main__"
    )
    culprit = fresh_interpreter(f"""
import importlib, json, sys

culprit = None
for name in {modules!r}:
    importlib.import_module(name)
    if any(m.split(".")[0] in ("scipy", "networkx") for m in sys.modules):
        culprit = name
        break
print(json.dumps(culprit))
""")
    assert {"repro.graph.grid_graph", "repro.measures.base"} <= set(modules)
    assert culprit is None


def test_lazy_surface_still_works():
    report = fresh_interpreter("""
import json, sys
import repro

report = {"bare": sorted(m for m in sys.modules if m.startswith("repro."))}
report["dir_lists_all"] = set(repro.__all__) <= set(dir(repro))
report["trajcl"] = repro.TrajCL.__module__
report["service"] = repro.SimilarityService.__module__
try:
    repro.no_such_name
except AttributeError as error:
    report["missing"] = str(error)

namespace = {}
exec("from repro import *", namespace)
report["star"] = sorted(set(repro.__all__) - set(namespace))

service = repro.SimilarityService(backend="hausdorff")
service.add([[(0.0, 0.0), (1.0, 1.0)], [(0.0, 1.0), (2.0, 2.0)],
             [(5.0, 5.0), (6.0, 6.0)]])
report["scipy_before_knn"] = "scipy.spatial" in sys.modules
distances, ids = service.knn([[(0.0, 0.0), (1.0, 1.5)]], k=2)
report["scipy_after_knn"] = "scipy.spatial" in sys.modules
report["ids"] = [int(i) for i in ids.ravel()]
print(json.dumps(report))
""")
    # `import repro` alone loads no subpackage, only the lazy-name helper
    assert report["bare"] == ["repro._lazy"]
    assert report["dir_lists_all"]
    assert report["trajcl"].startswith("repro.core")
    assert report["service"] == "repro.api.service"
    assert "no_such_name" in report["missing"]
    assert report["star"] == []  # every name in __all__ resolved
    assert not report["scipy_before_knn"]
    assert report["scipy_after_knn"]
    assert report["ids"] == [0, 1]


#: a lazy package -> what importing it alone loads of it, beyond itself:
#: a function named like its submodule is bound eagerly (see
#: test_a_function_named_like_its_submodule_stays_that_function)
ALONE = {
    "repro.api": [],
    "repro.api.cluster": [],
    "repro.index": ["repro.index.distance", "repro.index.kmeans"],
    "repro.trajectory": [],
    "repro.core": [],
    "repro.nn": ["repro.nn.tensor"],
    "repro.datasets": [],
}
#: one submodule of each, reached by attribute
SUBMODULE = {"repro.api": "wire", "repro.index": "pq",
             "repro.trajectory": "preprocess", "repro.core": "trainer",
             "repro.nn": "optim", "repro.datasets": "splits"}
#: what ``from <package> import *`` gave while the package was eager,
#: plus the names added since (``repro.core.build_trajcl``), less the
#: Visvalingam simplifier's, deleted
STAR = {
    "repro.index": [
        "BruteForceIndex", "HNSWIndex", "IVFFlatIndex", "Int8FlatIndex",
        "PQIndex", "ProductQuantizer", "RowStore", "ScalarQuantizer",
        "SegmentHausdorffIndex", "distance", "kmeans",
        "kmeans_plus_plus_init", "topk_rows"],
    "repro.trajectory": [
        "Grid", "MAX_POINTS_DEFAULT", "MIN_POINTS_DEFAULT", "PointArray",
        "Trajectory", "TrajectoryLike", "as_points", "as_points_batch",
        "douglas_peucker", "douglas_peucker_mask", "filter_trajectories",
        "pack_trajectories", "pad_point_arrays", "point_segment_distance",
        "resample_to_length", "unpack_trajectories", "within_bbox"],
    "repro.core": [
        "ConcatSTB", "DualMSM", "DualSTB", "DualSTBLayer",
        "FeatureEnrichment", "FinetuneHistory", "FrozenBackboneApproximator",
        "HeuristicApproximator", "InferenceEncoder", "NegativeQueue",
        "TrainHistory", "TrajCL", "TrajCLConfig", "TrajCLTrainer",
        "VanillaSTB", "available_augmentations", "build_encoder", "build_trajcl",
        "get_augmentation", "load_pipeline", "make_view",
        "pipeline_from_state", "pipeline_state", "point_mask", "point_shift",
        "raw", "save_pipeline", "simplify",
        "sinusoidal_position_encoding", "spatial_features", "truncate"],
    "repro.nn": [
        "Adam", "AdaptiveAvgPool2d", "Conv2d", "DEFAULT_DTYPE", "Dropout",
        "Embedding", "FeedForward", "GRU", "GRUCell", "LSTM", "LSTMCell",
        "LayerNorm", "Linear", "MaxPool2d", "Module", "ModuleList",
        "MultiHeadSelfAttention", "Optimizer", "Parameter", "ProjectionHead",
        "ReLU", "SGD", "Sequential", "StepLR", "Tensor", "TransformerEncoder",
        "TransformerEncoderLayer", "clip_grad_norm", "concatenate",
        "functional", "info_nce_loss", "is_grad_enabled", "load_into",
        "load_state", "maximum", "mse_loss", "no_grad", "ones",
        "parameter_version", "save_state", "stack", "tensor", "train_epoch",
        "triplet_margin_loss", "weighted_rank_loss", "where", "zeros"],
    "repro.datasets": [
        "CHENGDU", "CITY_PRESETS", "CityPreset", "DatasetSplits", "GERMANY",
        "PORTO", "QueryDatabase", "XIAN", "build_query_database", "distort",
        "downsample", "downstream_split", "generate_city",
        "generate_trajectory", "get_preset", "odd_even_split", "partition",
        "perturb_instance"],
}


def lazy_package_report(package):
    return fresh_interpreter(f"""
import importlib, json, sys
package = importlib.import_module({package!r})

report = {{"bare": sorted(m for m in sys.modules
                         if m.startswith({package!r} + "."))}}
report["dir_lists_all"] = set(package.__all__) <= set(dir(package))
namespace = {{}}
exec("from {package} import *", namespace)
report["star"] = sorted(set(namespace) - {{"__builtins__"}})
report["all"] = sorted(package.__all__)
report["submodule"] = getattr(package, {SUBMODULE[package]!r}).__name__
try:
    package.no_such_name
except AttributeError as error:
    report["missing"] = str(error)
print(json.dumps(report))
""")


def assert_resolves_on_first_use(package, report):
    assert report["bare"] == ALONE[package]
    assert report["dir_lists_all"]
    assert report["star"] == report["all"]  # every name in __all__ resolved
    assert report["submodule"] == f"{package}.{SUBMODULE[package]}"
    assert "no_such_name" in report["missing"]


def test_api_package_resolves_its_exports_on_first_use():
    report = lazy_package_report("repro.api")
    assert_resolves_on_first_use("repro.api", report)


@pytest.mark.parametrize("package", STAR)
def test_index_and_trajectory_resolve_their_exports_on_first_use(package):
    report = lazy_package_report(package)
    assert_resolves_on_first_use(package, report)
    assert report["star"] == STAR[package]


def test_a_function_named_like_its_submodule_stays_that_function():
    """Importing a submodule binds it on its package. ``kmeans`` and
    ``tensor`` are bound before anything can: the structures and the
    layers import those submodules by name."""
    report = fresh_interpreter("""
import inspect, json
import repro.index.pq, repro.index.kmeans
import repro.nn.layers, repro.nn.tensor
import repro.index, repro.nn
from repro.index import kmeans

print(json.dumps({
    "kmeans": inspect.isfunction(repro.index.kmeans),
    "imported": inspect.isfunction(kmeans),
    "tensor": inspect.isfunction(repro.nn.tensor),
}))
""")
    assert report == {"kmeans": True, "imported": True, "tensor": True}


def test_registry_is_populated_whichever_module_came_first():
    names = fresh_interpreter(
        "import json; from repro.api.registry import available_backends; "
        "print(json.dumps(available_backends()))")
    assert {"trajcl", "hausdorff", "t2vec"} <= set(names)


#: the owner side of sharded serving, which no shard worker runs: the
#: engine and query queue, the coordinator, the remote client and server
#: and the HTTP edge
OWNER_SIDE = ("repro.api.serving", "repro.api.coordinator",
              "repro.api.remote", "repro.api.gateway")
#: what a shard worker of an embedding cluster must never pay for: the
#: model code (its owner encodes) and the HTTP edge (it serves none)
NOT_IN_A_VECTOR_FED_WORKER = ("repro.core", "repro.nn", "repro.baselines",
                              "repro.api.gateway", "http.server", "ssl")
#: the index structures (each adapter imports its own when it builds it)
STRUCTURES = tuple(f"repro.index.{name}" for name in
                   ("bruteforce", "hnsw", "ivf", "pq", "quant", "segment"))
#: what a bruteforce shard never runs either: the other structures, the
#: heuristic measures, preprocessing (training's) and hashing (its owner
#: keys the cache)
NOT_IN_A_BRUTEFORCE_SHARD = (
    *STRUCTURES[1:], "repro.measures", "repro.trajectory.preprocess", "repro.trajectory.simplify",
    "hashlib", "_hashlib")


@functools.lru_cache(maxsize=None)
def tcp_worker_report():
    """A TCP shard worker joined as a trajcl coordinator joins it, fed two
    vectors and asked one kNN: its module set and its answers."""
    return fresh_interpreter("""
import json, sys
import numpy as np
from repro.api.backends import shard_backend_state
from repro.api.cluster import ShardWorker
from repro.api.protocols import BackendDescription
from repro.api.transport import SocketTransport, request

worker = ShardWorker()
link = SocketTransport.connect(*worker.address)
# what a coordinator ships of its trajcl backend (describing a
# description is the identity, and needs no model here)
described = shard_backend_state(BackendDescription("trajcl", 1.0, 4))
request(link, "join", {"backend": described, "index": "bruteforce",
                       "shards": [0], "worker_id": "worker-0"})
points = [np.zeros((3, 2)), np.ones((2, 2))]
vectors = np.arange(8.0).reshape(2, 4)
sizes = request(link, "add", {0: (points, vectors)})
distances, ids = request(link, "knn", ([0], (vectors[1:], 2, None)))[0]
kind = request(link, "stats")["kind"]
link.close()
worker.close()
print(json.dumps({"modules": sorted(sys.modules), "sizes": sizes[0],
                  "ids": ids.tolist(), "kind": kind}))
""")


def test_vector_fed_cluster_worker_loads_no_model_and_no_http():
    report = tcp_worker_report()
    assert report["sizes"] == 2 and report["ids"] == [[1, 0]]
    assert report["kind"] == "embedding"
    assert loaded(report["modules"], *NOT_IN_A_VECTOR_FED_WORKER) == []
    assert "repro.index.bruteforce" in report["modules"]
    assert loaded(report["modules"], *NOT_IN_A_BRUTEFORCE_SHARD,
                  "multiprocessing") == []


def test_tcp_shard_worker_loads_no_owner_side():
    """join / add / knn run the worker side alone: ``repro.api.shard`` and
    the accept loop of ``repro.api.node``."""
    report = tcp_worker_report()
    assert report["ids"] == [[1, 0]]
    assert {"repro.api.shard", "repro.api.node"} <= set(report["modules"])
    assert loaded(report["modules"], *OWNER_SIDE) == []


def test_spawned_pipe_worker_loads_no_model_and_no_http(tmp_path):
    # The worker process reports its own module set: its target is wrapped
    # from a module it can import (what benchmarks/e2e/spans.py does too).
    (tmp_path / "probe.py").write_text("""
import json, os, sys
from repro.api import shard

_shard_worker = shard._shard_worker


def shard_worker(*args):
    try:
        _shard_worker(*args)
    finally:
        with open(os.environ["PROBE_OUT"], "w") as handle:
            json.dump(sorted(sys.modules), handle)
""")
    out = tmp_path / "modules.json"
    report = fresh_interpreter("""
import json, os, sys
import numpy as np
import probe
from repro.api import serving


class Model:
    output_dim = 2

    def encode(self, batch):
        return np.stack([np.asarray(t, dtype=float)[[0, -1], 0] for t in batch])


serving._shard_worker = probe.shard_worker
with serving.ShardedSimilarityService(backend=Model(), num_workers=1,
                                      start_method="spawn") as service:
    service.add([np.zeros((3, 2)), np.ones((2, 2))])
    distances, ids = service.knn([np.ones((2, 2))], k=1)
    kind = service.stats()["kind"]
with open(os.environ["PROBE_OUT"]) as handle:
    print(json.dumps({"modules": json.load(handle), "ids": ids.tolist(),
                      "kind": kind}))
""", PYTHONPATH=f"{SRC}:{tmp_path}", PROBE_OUT=str(out))
    assert report["ids"] == [[1]] and report["kind"] == "embedding"
    # the spawned worker unpickles its target from repro.api.shard: it
    # loads the worker side, not the engine that started it
    assert "repro.api.shard" in report["modules"]
    assert loaded(report["modules"], *OWNER_SIDE) == []
    assert loaded(report["modules"], *NOT_IN_A_VECTOR_FED_WORKER) == []
    # (multiprocessing is how a spawned worker starts: not forbidden here)
    assert loaded(report["modules"], *NOT_IN_A_BRUTEFORCE_SHARD) == []


#: what only training, fine-tuning and the evaluation protocol run
TRAINING_ONLY = (
    *(f"repro.core.{name}" for name in
      ("trainer", "finetune", "augmentation", "checkpoint")),
    *(f"repro.nn.{name}" for name in
      ("rnn", "conv", "optim", "serialization")),
    "repro.datasets.queries", "repro.datasets.splits")


def test_trajcl_coordinator_loads_no_structure_or_measure():
    """The owner encodes and merges; its shard worker (another process)
    builds the index. Serving a built model loads none of the training
    code either, nor ``numpy.ma`` (~1.7 MB of resident memory; numpy 2's
    ``np.unique`` imports it)."""
    report = fresh_interpreter("""
import json, subprocess, sys
import numpy as np

WORKER = '''
import sys
from repro.api.cluster import ShardWorker

with ShardWorker() as worker:
    print("%s:%d" % worker.address, flush=True)
    sys.stdin.read()
'''
worker = subprocess.Popen([sys.executable, "-c", WORKER], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True)
address = worker.stdout.readline().strip()

from repro.api import get_backend
from repro.api.cluster import ClusterCoordinator
from repro.core import FeatureEnrichment, TrajCL, TrajCLConfig
from repro.trajectory import Grid

grid = Grid(0.0, 0.0, 100.0, 100.0, 25.0)
model = TrajCL(
    FeatureEnrichment(grid, np.zeros((grid.n_cells, 8)), max_len=8),
    TrajCLConfig(structural_dim=8, max_len=8, projection_dim=4,
                 queue_size=8, batch_size=4, max_epochs=1),
    rng=np.random.default_rng(0))
rng = np.random.default_rng(1)
with ClusterCoordinator([address], backend=get_backend("trajcl", model=model),
                        heartbeat_interval=0) as cluster:
    cluster.add([rng.uniform(0.0, 100.0, (5, 2)) for _ in range(4)])
    size = len(cluster)
worker.stdin.close()
worker.wait(timeout=60)
worker.stdout.close()
print(json.dumps({"modules": sorted(sys.modules), "size": size}))
""")
    assert report["size"] == 4
    assert "repro.core" in report["modules"]
    assert loaded(report["modules"], *STRUCTURES, "repro.measures",
                  "numpy.ma") == []
    assert loaded(report["modules"], *TRAINING_ONLY) == []


def test_an_ivf_index_trains_and_adds_without_numpy_ma():
    """``numpy.ma`` is ~1.7 MB of resident memory, and numpy 2's
    ``np.unique`` imports it: the IVF add groups its rows without it."""
    report = fresh_interpreter("""
import json, sys
import numpy as np
from repro.api import get_index

rng = np.random.default_rng(0)
index = get_index("ivf", n_lists=4)
index.add(rng.standard_normal((64, 8)).astype(np.float32))
index.search(rng.standard_normal((2, 8)).astype(np.float32), 3)  # trains
index.add(rng.standard_normal((32, 8)).astype(np.float32))
ids, _ = index.search(rng.standard_normal((2, 8)).astype(np.float32), 3)
print(json.dumps({"modules": sorted(sys.modules), "size": len(index),
                  "stats": index.stats()["trained"]}))
""")
    assert report["size"] == 96 and report["stats"]
    assert "repro.index.ivf" in report["modules"]
    assert loaded(report["modules"], "numpy.ma") == []


def test_build_parser_loads_no_analyzer():
    """Every `repro knn`/`serve`/`cluster-worker` builds the whole parser:
    it loads no lint framework (there is none) and nothing the tests own,
    such as the lock sanitizer under ``tests/``."""
    modules = fresh_interpreter(
        "import json, sys, repro.cli; repro.cli.build_parser(); "
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert "repro.cli" in modules
    assert loaded(modules, "repro.analysis", "tests") == []


def test_the_analyzer_package_is_gone():
    """The lock rules are tier-1 laws (``tests/test_lock_discipline.py``)
    and the sanitizer is ``tests/lock_sanitizer.py``; the product ships
    no linter. (A checkout that had the package may keep its bytecode
    directory, which imports as an empty namespace package.)"""
    import importlib.util

    spec = importlib.util.find_spec("repro.analysis")
    assert spec is None or not [
        source for location in spec.submodule_search_locations or ()
        for source in pathlib.Path(location).glob("*.py")]


def test_no_product_module_imports_the_tests():
    """The lock sanitizer, the lock laws and the fault injector live under
    ``tests/``; no module of the product imports anything from there,
    and ``repro.api`` exports none of the injector's names."""
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and not node.level:
            return [node.module]
        return []

    importers = sorted(
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in (SRC / "repro").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        for name in imported(node) if name.split(".")[0] == "tests")
    assert importers == []
    import repro.api

    assert [name for name in dir(repro.api) if name.startswith("Chaos")] == []


def test_lint_is_not_a_command(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["lint"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'lint'" in capsys.readouterr().err
