"""The four workloads: what each one builds and why it exists.

A workload is a database size, an index recipe and a *system*: the way
the load generator reaches the program (in-process, over the remote
client, over HTTP). Systems own every process they start and stop them
in ``close()`` — closed, then killed after a bounded wait.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

K = 10
DIM = 64
MAX_LEN = 32
GRID_CELLS_PER_SIDE = 16
CITY = "porto"
#: weights of the untrained encoder; the program's configuration, not an
#: input, so it does not follow ``--seed``
BACKEND_SEED = 20230403
#: set-up adds the database in chunks of this many, a speed mark between
#: any two (the gateway refuses bodies over 8 MiB; 512 stay under 1 MiB)
SETUP_CHUNK = 512
#: a target that has not exited this long after its stdin closed is killed
CLOSE_GRACE_SECONDS = 10.0
#: shard workers behind ``remote_sharded`` and ``edge_http``
SHARDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    system: str               # "inproc" | "remote" | "http"
    db_size: int
    index: str
    index_kwargs: Dict = field(default_factory=dict)
    clients: int = 1
    recall_floor: float = 1.0
    why: str = ""

    @property
    def exact(self) -> bool:
        """An exact index must return the oracle's neighbours, all of them."""
        return self.recall_floor >= 1.0


# Sizes are what fits: the driver gives every run ~37 s including set-up,
# encoding costs ~0.85 ms per trajectory on this box, the database is
# encoded by two set-ups and once more by the oracle, so the 12 000 / 8 000
# of the issue become 5 000 / 3 500 (README "Sizing"). The issue's recall
# floor of 0.80 is not reached by its own recipe at its own size (0.74-0.76
# at 8 000, 0.77 at 3 500; 16 x 128, no refine), hence 0.70.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "scan_inproc", "inproc", 5000, "bruteforce",
        why=("in-process bruteforce scan of 5000: the scan is 0.3 of a "
             "one-query call and 0.7 of a 16-query call, set-up and ingest "
             "are encoder, so kernel and encoder changes land on different "
             "metrics")),
    Workload(
        "ann_inproc", "inproc", 3500, "pq",
        index_kwargs={"n_subspaces": 16, "n_centroids": 128},
        recall_floor=0.70,
        why=("in-process product quantisation of 3500: k-means is 0.4 of "
             "set-up and recall is 0.77, so build-time and "
             "accuracy-for-speed trades show; a bruteforce-only change "
             "predicts no change here")),
    Workload(
        "remote_sharded", "remote", 5000, "bruteforce",
        why=("scan_inproc's data behind remote client, server process and "
             "two pipe-fed shard workers, all on one hardware thread: shards "
             "run in turn, so the gap to scan_inproc is serving work, not "
             "parallel latency")),
    Workload(
        "edge_http", "http", 2000, "bruteforce", clients=2,
        why=("two keep-alive HTTP clients via gateway, query queue and "
             "coordinator to two TCP shard workers, one hardware thread, "
             "2000 trajectories: search is 5 %, so only gateway, queue and "
             "cluster changes show")),
)}

def build_backend():
    """The seeded, untrained TrajCL backend every process rebuilds alike."""
    from repro.api import get_backend
    from repro.core import FeatureEnrichment, TrajCL, TrajCLConfig
    from repro.datasets import get_preset
    from repro.trajectory import Grid

    extent = get_preset(CITY).extent
    grid = Grid(0.0, 0.0, extent, extent, extent / GRID_CELLS_PER_SIDE)
    config = TrajCLConfig(structural_dim=DIM, max_len=MAX_LEN,
                          projection_dim=16, queue_size=64, batch_size=8,
                          max_epochs=1, momentum=0.95)
    rng = np.random.default_rng(BACKEND_SEED)
    # node2vec pre-training of the cell table costs 2.5 s and changes no
    # timing: an untrained encoder reads random cell vectors just as fast
    cells = rng.normal(0.0, 0.1, size=(grid.n_cells, DIM))
    features = FeatureEnrichment(grid, cells, max_len=MAX_LEN)
    model = TrajCL(features, config, encoder_variant="dual",
                   rng=np.random.default_rng(BACKEND_SEED + 1))
    return get_backend("trajcl", model=model)


# ----------------------------------------------------------------------
# Target processes
# ----------------------------------------------------------------------
class Target:
    """One benchmark-owned server process (``targets.py <role>``).

    The child prints one JSON ready line once its port is bound; it
    exits when its stdin closes, so it can never outlive the load
    generator, even a killed one.
    """

    def __init__(self, role: str, *arguments: str,
                 trace_dir: Optional[str] = None):
        command = [sys.executable, os.path.join(HERE, "targets.py"), role,
                   *arguments]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        self.role = role
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.ready: Dict = {}

    def wait_ready(self) -> Dict:
        # a dead child closes stdout, so readline returns "" at once; a
        # hung one is bounded by the supervisor's per-run timeout
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"target {self.role!r} did not come up "
                               f"(exit code {self.process.poll()})")
        self.ready = json.loads(line)
        return self.ready

    @property
    def pid(self) -> int:
        return self.process.pid

    def close(self) -> None:
        process = self.process
        if process.poll() is None:
            try:
                process.stdin.close()  # EOF is the stop signal
            except OSError:
                pass
            try:
                process.wait(timeout=CLOSE_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        for stream in (process.stdin, process.stdout):
            try:
                stream.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Systems
# ----------------------------------------------------------------------
class HttpStatusError(RuntimeError):
    def __init__(self, status: int, body: bytes):
        super().__init__(f"HTTP {status}: {body[:200]!r}")
        self.status = status
        self.reason = f"http_{status}"  # the tally's failure label


class InprocSystem:
    """The load generator calls a ``SimilarityService`` directly."""

    served = False

    def __init__(self, workload: Workload, trace_dir: Optional[str] = None):
        self.workload = workload
        self.backend = build_backend()  # weight init is prep, not set-up
        self.service = None

    def start(self) -> None:
        from repro.api import SimilarityService

        self.service = SimilarityService(
            backend=self.backend, index=self.workload.index,
            index_kwargs=dict(self.workload.index_kwargs))

    def prepare_query(self, queries: List[np.ndarray]):
        return queries[0] if len(queries) == 1 else queries

    def prepare_add(self, trajectories: List[np.ndarray]):
        return trajectories

    def caller(self, position: int = 0) -> "InprocSystem":
        return self

    def knn(self, prepared) -> Tuple[np.ndarray, np.ndarray]:
        return self.service.knn(prepared, k=K)

    def add(self, prepared) -> None:
        self.service.add(prepared)

    def stats(self) -> Dict:
        return self.service.stats()

    def program_pids(self) -> List[int]:
        return [os.getpid()]

    def close(self) -> None:
        self.service = None


class RemoteCaller:
    """``RemoteSimilarityClient`` behind the load generator's call shape."""

    def __init__(self, address: Tuple[str, int]):
        from repro.api import RemoteSimilarityClient

        self.client = RemoteSimilarityClient(address)

    def knn(self, prepared) -> Tuple[np.ndarray, np.ndarray]:
        return self.client.knn(prepared, k=K)

    def add(self, prepared) -> None:
        self.client.add(prepared)

    def close(self) -> None:
        self.client.close()


class RemoteSystem:
    """Remote client → server process → two pipe-fed shard workers."""

    served = True

    def __init__(self, workload: Workload, trace_dir: Optional[str] = None):
        self.workload = workload
        self.trace_dir = trace_dir
        self.target: Optional[Target] = None
        self._callers: List[RemoteCaller] = []

    def start(self) -> None:
        self.target = Target(
            "server", "--index", self.workload.index,
            "--index-kwargs", json.dumps(self.workload.index_kwargs),
            trace_dir=self.trace_dir)
        self.target.wait_ready()

    def prepare_query(self, queries: List[np.ndarray]):
        return queries

    def prepare_add(self, trajectories: List[np.ndarray]):
        return trajectories

    def caller(self, position: int = 0) -> RemoteCaller:
        while len(self._callers) <= position:
            self._callers.append(
                RemoteCaller(tuple(self.target.ready["address"])))
        return self._callers[position]

    def stats(self) -> Dict:
        return self.caller().client.stats()

    def program_pids(self) -> List[int]:
        from measure import descendants

        return [self.target.pid] + descendants(self.target.pid)

    def close(self) -> None:
        for caller in self._callers:
            try:
                caller.close()
            except Exception:  # a dead server must not block the teardown
                pass
        self._callers = []
        if self.target is not None:
            self.target.close()


class HttpClient:
    """One keep-alive HTTP/1.1 connection to the gateway."""

    def __init__(self, host: str, port: int):
        self.connection = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def knn(self, body: bytes) -> Tuple[np.ndarray, np.ndarray]:
        status, payload = self.request("POST", "/knn", body)
        if status != 200:
            raise HttpStatusError(status, payload)
        document = json.loads(payload)
        return (np.asarray(document["distances"], dtype=np.float64),
                np.asarray(document["ids"], dtype=np.int64))

    def add(self, body: bytes) -> None:
        status, payload = self.request("POST", "/add", body)
        if status != 200:
            raise HttpStatusError(status, payload)

    def get_json(self, path: str) -> Dict:
        status, payload = self.request("GET", path)
        if status != 200:
            raise HttpStatusError(status, payload)
        return json.loads(payload)

    def close(self) -> None:
        self.connection.close()


class HttpSystem:
    """HTTP clients → gateway + queue + coordinator process → two TCP
    shard worker processes."""

    served = True

    def __init__(self, workload: Workload, trace_dir: Optional[str] = None):
        self.workload = workload
        self.trace_dir = trace_dir
        self.workers: List[Target] = []
        self.edge: Optional[Target] = None
        self._clients: List[HttpClient] = []

    def start(self) -> None:
        self.workers = [Target("worker", trace_dir=self.trace_dir)
                        for _ in range(SHARDS)]
        addresses = ["{}:{}".format(*worker.wait_ready()["address"])
                     for worker in self.workers]
        self.edge = Target(
            "edge", "--workers", ",".join(addresses),
            "--index", self.workload.index,
            "--index-kwargs", json.dumps(self.workload.index_kwargs),
            trace_dir=self.trace_dir)
        self.edge.wait_ready()

    @staticmethod
    def _trajectory_json(trajectories: List[np.ndarray]) -> List:
        return [points.tolist() for points in trajectories]

    def prepare_query(self, queries: List[np.ndarray]) -> bytes:
        document = self._trajectory_json(queries)
        return json.dumps({"queries": document[0] if len(queries) == 1
                           else document, "k": K}).encode()

    def prepare_add(self, trajectories: List[np.ndarray]) -> bytes:
        return json.dumps(
            {"trajectories": self._trajectory_json(trajectories)}).encode()

    def caller(self, position: int = 0) -> HttpClient:
        while len(self._clients) <= position:
            self._clients.append(HttpClient(*self.edge.ready["address"]))
        return self._clients[position]

    def stats(self) -> Dict:
        return self.caller().get_json("/stats")

    def program_pids(self) -> List[int]:
        return [self.edge.pid] + [worker.pid for worker in self.workers]

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []
        # the edge first: its coordinator says goodbye to live workers
        for target in [self.edge] + self.workers:
            if target is not None:
                target.close()


SYSTEMS = {"inproc": InprocSystem, "remote": RemoteSystem,
           "http": HttpSystem}
