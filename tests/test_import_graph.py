"""The import graph follows the layering: a process loads what it serves.

Each case starts a fresh interpreter, imports one entry point and reads
``sys.modules`` back — module *sets*, not wall-clock, so nothing here can
flake. scipy (the heuristic measures' ``cdist``) and networkx
(``GridGraph.to_networkx``) load on the call that needs them, never on
import; ``repro`` resolves its subpackages on first attribute access, so
the serving stack does not drag in the baselines, datasets or evaluation
harness; ``repro.api`` resolves its re-exports the same way, so a shard
worker that is fed vectors loads no model code and no HTTP stack.
``make bench-startup`` records what this buys in seconds and MB.
"""

import json
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = [
    "repro", "repro.index", "repro.api", "repro.api.cluster",
    "repro.api.gateway", "repro.cli",
]


def fresh_interpreter(code, **environment):
    """Run ``code`` in a new interpreter; it prints one JSON document."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
                          **environment},
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
    assert report["bare"] == []  # `import repro` alone loads no subpackage
    assert report["dir_lists_all"]
    assert report["trajcl"].startswith("repro.core")
    assert report["service"] == "repro.api.service"
    assert "no_such_name" in report["missing"]
    assert report["star"] == []  # every name in __all__ resolved
    assert not report["scipy_before_knn"]
    assert report["scipy_after_knn"]
    assert report["ids"] == [0, 1]


def test_api_package_resolves_its_exports_on_first_use():
    report = fresh_interpreter("""
import json, sys
import repro.api

report = {"bare": sorted(m for m in sys.modules if m.startswith("repro.api."))}
report["dir_lists_all"] = set(repro.api.__all__) <= set(dir(repro.api))
namespace = {}
exec("from repro.api import *", namespace)
report["star"] = sorted(set(repro.api.__all__) - set(namespace))
report["wire"] = repro.api.wire.__name__
try:
    repro.api.no_such_name
except AttributeError as error:
    report["missing"] = str(error)
print(json.dumps(report))
""")
    assert report["bare"] == []  # `import repro.api` alone loads no module
    assert report["dir_lists_all"]
    assert report["star"] == []  # every name in __all__ resolved
    assert report["wire"] == "repro.api.wire"
    assert "no_such_name" in report["missing"]


def test_registry_is_populated_whichever_module_came_first():
    names = fresh_interpreter(
        "import json; from repro.api.registry import available_backends; "
        "print(json.dumps(available_backends()))")
    assert {"trajcl", "hausdorff", "t2vec"} <= set(names)


#: what a shard worker of an embedding cluster must never pay for: the
#: model code (its owner encodes) and the HTTP edge (it serves none)
NOT_IN_A_VECTOR_FED_WORKER = ("repro.core", "repro.nn", "repro.baselines",
                              "repro.api.gateway", "http.server", "ssl")


def test_vector_fed_cluster_worker_loads_no_model_and_no_http():
    report = fresh_interpreter("""
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
described = shard_backend_state(BackendDescription("trajcl", "l1", 1.0, 4))
request(link, "join", {"backend": described, "index": "bruteforce",
                       "shards": [0], "worker_id": "worker-0"})
points = [np.zeros((3, 2)), np.ones((2, 2))]
vectors = np.arange(8.0).reshape(2, 4)
sizes = request(link, "add", {0: (points, vectors)})
distances, ids = request(link, "knn", ([0], (vectors[1:], 2)))[0]
kind = request(link, "stats")["kind"]
link.close()
worker.close()
print(json.dumps({"modules": sorted(sys.modules), "sizes": sizes[0],
                  "ids": ids.tolist(), "kind": kind}))
""")
    assert report["sizes"] == 2 and report["ids"] == [[1, 0]]
    assert report["kind"] == "embedding"
    assert loaded(report["modules"], *NOT_IN_A_VECTOR_FED_WORKER) == []


def test_spawned_pipe_worker_loads_no_model_and_no_http(tmp_path):
    # The worker process reports its own module set: its target is wrapped
    # from a module it can import (what benchmarks/e2e/spans.py does too).
    (tmp_path / "probe.py").write_text("""
import json, os, sys
from repro.api import serving

_shard_worker = serving._shard_worker


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
    assert "repro.api.serving" in report["modules"]
    assert loaded(report["modules"], *NOT_IN_A_VECTOR_FED_WORKER) == []


ANALYZERS = ["repro.analysis." + name for name in
             ("core", "concurrency", "sanitizer")]


def test_build_parser_loads_no_analyzer():
    """Every `repro knn`/`serve`/`cluster-worker` builds the whole parser;
    registering lint's four options must not import the checkers."""
    modules = fresh_interpreter(
        "import json, sys, repro.cli; repro.cli.build_parser(); "
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert "repro.analysis.lint_cli" in modules
    assert loaded(modules, *ANALYZERS) == []


def test_lint_still_finds_every_rule():
    report = fresh_interpreter("""
import contextlib, io, json, sys
from repro.cli import main

printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    status = main(["lint", "--list-rules"])
rules = [line.split()[0] for line in printed.getvalue().splitlines()
         if line[:1].isalpha()]
modules = sorted(sys.modules)
from repro.analysis import rule_catalog
print(json.dumps({"status": status, "rules": rules, "modules": modules,
                  "catalog": sorted(rule_catalog())}))
""")
    assert report["status"] == 0
    assert report["rules"] == report["catalog"]
    # running the linter is what loads the checkers (the sanitizer is the
    # runtime half: REPRO_LOCK_SANITIZER=1 loads it, lint does not)
    assert set(ANALYZERS[:2]) <= set(report["modules"])
