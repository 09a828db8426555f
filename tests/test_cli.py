"""Tests for the command-line interface (repro.cli)."""

import argparse
import time

import numpy as np
import pytest

from repro.cli import build_parser, load_trajectories, main, save_trajectories


def wait_for_ready(path) -> str:
    """The address a command wrote to its ``--ready-file`` (written
    atomically, so existing means complete)."""
    for _ in range(200):
        if path.exists():
            break
        time.sleep(0.05)
    return path.read_text().strip()


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "city.npz")
    assert main(["generate", "--city", "porto", "--count", "40",
                 "--seed", "1", "--output", path]) == 0
    return path


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "model.npz")
    assert main(["train", "--city", "porto", "--count", "60", "--epochs", "1",
                 "--seed", "0", "--output", path]) == 0
    return path


class TestTrajectoriesIO:
    def test_roundtrip(self, tmp_path):
        trajs = [np.random.default_rng(i).standard_normal((5 + i, 2))
                 for i in range(3)]
        path = str(tmp_path / "t.npz")
        save_trajectories(path, trajs)
        loaded = load_trajectories(path)
        assert len(loaded) == 3
        for original, restored in zip(trajs, loaded):
            np.testing.assert_allclose(original, restored)

    def test_writes_format_version(self, tmp_path):
        from repro.cli import TRAJECTORY_FORMAT_VERSION

        path = str(tmp_path / "t.npz")
        save_trajectories(path, [np.zeros((4, 2))])
        with np.load(path) as archive:
            assert int(archive["format_version"]) == TRAJECTORY_FORMAT_VERSION

    def test_legacy_unversioned_file_is_a_clear_error(self, tmp_path):
        path = str(tmp_path / "legacy.npz")
        np.savez(path, count=np.array(1), traj_0=np.ones((3, 2)))
        with pytest.raises(ValueError, match="not a trajectory dataset"):
            load_trajectories(path)

    def test_version_1_file_is_refused_naming_its_version(self, tmp_path):
        path = str(tmp_path / "v1.npz")
        np.savez(path, format_version=np.array(1), count=np.array(1),
                 traj_0=np.ones((3, 2)))
        with pytest.raises(ValueError, match="format version 1"):
            load_trajectories(path)

    def test_unknown_version_is_a_clear_error(self, tmp_path):
        path = str(tmp_path / "future.npz")
        np.savez(path, format_version=np.array(999), count=np.array(0))
        with pytest.raises(ValueError, match="format version 999"):
            load_trajectories(path)

    def test_non_dataset_file_is_a_clear_error(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, other=np.zeros(3))
        with pytest.raises(ValueError, match="not a trajectory dataset"):
            load_trajectories(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_city(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--city", "london",
                                       "--output", "x.npz"])


def opt(*strings, type=None, default=None, required=False, choices=None):
    """One row of the CLI contract below."""
    return (strings, type, default, required, choices)


_CITY = opt("--city", default="porto",
            choices=("porto", "chengdu", "xian", "germany"))
_SERVICE = {
    opt("--checkpoint"),
    opt("--backend", default="trajcl"),
    opt("--index", default="auto",
        choices=("auto", "bruteforce", "ivf", "pq", "int8", "hnsw", "segment")),
    opt("--lists", type=int, default=16),
    opt("--pq-subspaces", type=int, default=16),
    opt("--pq-centroids", type=int, default=256),
    opt("--pq-refine", type=int, default=0),
    opt("--hnsw-m", type=int, default=16),
    opt("--ef-construction", type=int, default=64),
    opt("--ef-search", type=int, default=32),
    opt("--train-epochs", type=int, default=1),
    opt("--seed", type=int, default=0),
}
_LOCAL_WORKERS = opt("--workers", type=int, default=1)
_LISTEN = {
    opt("--host", default="127.0.0.1"),
    opt("--port", type=int, default=0),
    opt("--ready-file"),
}
_SERVED = _LISTEN | {opt("--max-requests", type=int)}

#: every subcommand's settable points as captured from the tree before the
#: serving commands were collapsed onto shared argument groups: (option
#: strings, type, default, required, choices) — 134 rows then, 122 once
#: ``--no-fast-encode`` / ``--encode-dtype`` left the six subcommands that
#: took them (there is one way to encode), 116 since ``--batch-wait`` left
#: four and ``--max-batch`` two (only ``serve-http`` builds a queue).
CLI_CONTRACT = {
    "generate": {
        _CITY, opt("--count", type=int, default=300),
        opt("--seed", type=int, default=0), opt("--output", required=True),
    },
    "train": {
        _CITY, opt("--count", type=int, default=300),
        opt("--epochs", type=int, default=3),
        opt("--seed", type=int, default=0), opt("--output", required=True),
    },
    "encode": {
        opt("--checkpoint", required=True), opt("--data", required=True),
        opt("--output", required=True),
    },
    "backends": set(),
    "evaluate": {
        opt("--checkpoint"), opt("--data", required=True), opt("--backend"),
        opt("--queries", type=int, default=15),
        opt("--database", type=int, default=100),
        opt("--heuristics", default=False),
        opt("--train-epochs", type=int, default=1),
        opt("--seed", type=int, default=0),
    },
    "knn": _SERVICE | {
        opt("--data", required=True), _LOCAL_WORKERS,
        opt("--query", type=int, default=0), opt("--k", type=int, default=3),
        opt("--remote"),
    },
    "serve": _SERVICE | _SERVED | {
        opt("--data", required=True), _LOCAL_WORKERS,
    },
    "serve-http": _SERVICE | _SERVED | {
        opt("--data"), _LOCAL_WORKERS, opt("--remote"),
        opt("--max-batch", type=int, default=64),
        opt("--max-pending", type=int, default=1024),
        opt("--rate-limit", type=float), opt("--burst", type=float),
        opt("--max-body", type=int, default=8 << 20),
    },
    "cluster-worker": _LISTEN,
    "cluster": _SERVICE | _SERVED | {
        opt("--data", required=True), opt("--workers", required=True),
        opt("--heartbeat-interval", type=float, default=2.0),
        opt("--heartbeat-timeout", type=float, default=10.0),
        opt("--connect-retries", type=int, default=5),
        opt("--retry-wait", type=float, default=0.1),
        opt("--shutdown-workers", default=False),
        opt("--replication", type=int, default=1),
    },
}


def subcommands():
    parser = build_parser()
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


class TestCliContract:
    def test_subcommands(self):
        # exactly these: the serving benchmark is no longer a subcommand
        assert set(subcommands()) == set(CLI_CONTRACT)

    @pytest.mark.parametrize("command", sorted(CLI_CONTRACT))
    def test_options_are_the_recorded_ones(self, command):
        def freeze(value):
            return tuple(value) if isinstance(value, list) else value

        actual = {
            (tuple(a.option_strings) or (a.dest,), a.type, freeze(a.default),
             a.required, freeze(a.choices))
            for a in subcommands()[command]._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert actual == CLI_CONTRACT[command]

    def test_settable_points(self):
        assert sum(len(rows) for rows in CLI_CONTRACT.values()) == 106


class TestGenerate:
    def test_creates_dataset(self, dataset_path):
        trajectories = load_trajectories(dataset_path)
        assert len(trajectories) == 40
        assert all(t.shape[1] == 2 for t in trajectories)

    def test_output_message(self, dataset_path, capsys, tmp_path):
        main(["generate", "--city", "xian", "--count", "5",
              "--output", str(tmp_path / "x.npz")])
        out = capsys.readouterr().out
        assert "5 xian trajectories" in out


class TestTrainEncodeEvaluateKnn:
    def test_train_writes_checkpoint(self, checkpoint_path):
        from repro.core import load_pipeline

        model = load_pipeline(checkpoint_path)
        assert model.encoder.output_dim > 0

    def test_encode(self, checkpoint_path, dataset_path, tmp_path, capsys):
        out_path = str(tmp_path / "emb.npy")
        assert main(["encode", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--output", out_path]) == 0
        embeddings = np.load(out_path)
        assert embeddings.shape[0] == 40

    def test_evaluate(self, checkpoint_path, dataset_path, capsys):
        assert main(["evaluate", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--queries", "5",
                     "--database", "30"]) == 0
        out = capsys.readouterr().out
        assert "TrajCL" in out and "mean rank" in out

    def test_evaluate_with_heuristics(self, checkpoint_path, dataset_path, capsys):
        assert main(["evaluate", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--queries", "4",
                     "--database", "20", "--heuristics"]) == 0
        out = capsys.readouterr().out
        for name in ["hausdorff", "frechet", "edr", "edwp"]:
            assert name in out

    def test_knn(self, checkpoint_path, dataset_path, capsys):
        assert main(["knn", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--query", "2", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "3NN of trajectory 2" in out
        assert "index bruteforce" in out  # the embedding-backend default
        assert "#3:" in out

    def test_encode_writes_float32(self, checkpoint_path, dataset_path,
                                   tmp_path):
        out_path = str(tmp_path / "emb32.npy")
        assert main(["encode", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--output", out_path]) == 0
        assert np.load(out_path).dtype == np.float32

    @pytest.mark.parametrize("flag", [["--no-fast-encode"],
                                      ["--encode-dtype", "float64"]])
    def test_encode_flags_are_gone(self, checkpoint_path, dataset_path,
                                   flag, capsys):
        with pytest.raises(SystemExit):
            main(["knn", "--checkpoint", checkpoint_path,
                  "--data", dataset_path, "--query", "2", "--k", "3"] + flag)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_knn_agrees_with_reference(self, checkpoint_path, dataset_path,
                                       capsys):
        """The CLI's one encode route returns the neighbours of the
        reference Tensor path scanned in float64."""
        from repro.cli import load_trajectories
        from repro.core import load_pipeline

        assert main(["knn", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--query", "2", "--k", "3"]) == 0
        out = capsys.readouterr().out
        printed = [int(line.split("trajectory")[1].split()[0])
                   for line in out.splitlines() if line.lstrip().startswith("#")]
        trajectories = load_trajectories(dataset_path)
        reference = load_pipeline(checkpoint_path).encode(
            trajectories, fast=False, dtype="float64")
        distances = np.abs(reference - reference[2]).sum(axis=1)
        distances[2] = np.inf  # the CLI excludes the query itself
        assert printed == np.argsort(distances, kind="stable")[:3].tolist()


class TestBackendsCommand:
    def test_lists_all_backends(self, capsys):
        from repro.api import available_backends

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out

    def test_evaluate_with_heuristic_backend(self, dataset_path, capsys):
        assert main(["evaluate", "--data", dataset_path,
                     "--backend", "hausdorff",
                     "--queries", "4", "--database", "20"]) == 0
        out = capsys.readouterr().out
        assert "hausdorff" in out and "mean rank" in out

    def test_evaluate_trajcl_requires_checkpoint(self, dataset_path):
        with pytest.raises(SystemExit, match="needs --checkpoint"):
            main(["evaluate", "--data", dataset_path, "--backend", "trajcl"])

    def test_knn_with_heuristic_backend(self, dataset_path, capsys):
        assert main(["knn", "--data", dataset_path, "--backend", "hausdorff",
                     "--query", "1", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "backend hausdorff" in out
        assert "#2:" in out

    def test_knn_never_returns_self_or_short_results(self, checkpoint_path,
                                                     dataset_path, capsys):
        import re

        assert main(["knn", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--query", "0", "--k", "4"]) == 0
        out = capsys.readouterr().out
        # the query itself never appears among the results...
        assert re.search(r"#\d+: trajectory 0 \(", out) is None
        assert "#4:" in out  # ...and the result is still k long

    @pytest.mark.parametrize("query", ["-1", "40"])
    @pytest.mark.parametrize("remote", [[], ["--remote", "127.0.0.1:9"]])
    def test_knn_query_out_of_range(self, dataset_path, query, remote):
        """--query -1 used to wrap to the last trajectory (which came back
        as its own nearest neighbour); 40 of 40 was a bare IndexError. The
        check runs before any service is built or any server dialled."""
        with pytest.raises(SystemExit, match=f"--query {query} is out of "
                                             "range for the 40 trajectories"):
            main(["knn", "--data", dataset_path, "--backend", "hausdorff",
                  "--query", query, "--k", "2"] + remote)

    def test_knn_matches_similarity_service(self, checkpoint_path,
                                            dataset_path, capsys):
        """Acceptance: the CLI and the service return identical neighbours."""
        import re

        from repro.api import SimilarityService
        from repro.cli import load_trajectories as load

        assert main(["knn", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--query", "2", "--k", "3"]) == 0
        out = capsys.readouterr().out
        cli_ids = [int(m) for m in re.findall(r"#\d+: trajectory (\d+) \(", out)]

        database = load(dataset_path)
        service = SimilarityService(
            backend="trajcl", backend_kwargs={"checkpoint": checkpoint_path}
        )
        service.add(database)
        _, ids = service.knn(database[2], k=3, exclude=2)
        assert cli_ids == ids[0].tolist()


class TestServingCli:
    def test_knn_workers_matches_single_process(self, dataset_path, capsys):
        argv = ["knn", "--data", dataset_path, "--backend", "hausdorff",
                "--query", "1", "--k", "3"]
        assert main(argv) == 0
        single_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        sharded_out = capsys.readouterr().out
        # Same neighbours and distances, shard-count aside.
        assert single_out.splitlines()[1:] == sharded_out.splitlines()[1:]
        assert "workers 2" in sharded_out
        # Both paths resolve and report the backend's real default index.
        assert "index segment" in single_out
        assert "index segment" in sharded_out

    def test_serve_and_remote_knn(self, dataset_path, tmp_path, capsys):
        import threading

        ready = tmp_path / "ready"
        # knn --remote issues two requests (knn + stats); the server then
        # trips max_requests and serve returns on its own.
        server_argv = ["serve", "--data", dataset_path,
                       "--backend", "hausdorff", "--port", "0",
                       "--ready-file", str(ready), "--max-requests", "2"]
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.setdefault("serve", main(server_argv)))
        thread.start()
        try:
            address = wait_for_ready(ready)
            assert main(["knn", "--data", dataset_path, "--query", "1",
                         "--k", "3", "--remote", address]) == 0
            out = capsys.readouterr().out
            assert "3NN of trajectory 1" in out
            assert "backend hausdorff" in out
            assert f"remote {address}" in out
            # Remote answer matches the plain local CLI path.
            assert main(["knn", "--data", dataset_path,
                         "--backend", "hausdorff", "--query", "1",
                         "--k", "3"]) == 0
            local_out = capsys.readouterr().out
            # The serve thread's startup line shares captured stdout, so
            # compare just the neighbour rows (everything after the header).
            assert out.splitlines()[-3:] == local_out.splitlines()[-3:]
            assert any("#1:" in line for line in out.splitlines())
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert rc.get("serve") == 0


class TestClusterCli:
    def test_cluster_front_end_and_remote_knn(self, dataset_path, tmp_path,
                                              capsys):
        import threading

        from repro.api import ShardWorker

        workers = [ShardWorker(), ShardWorker()]
        ready = tmp_path / "cluster-ready"
        # knn --remote issues two requests (knn + stats); the front-end
        # trips max_requests and `cluster` returns on its own.
        front_argv = ["cluster", "--data", dataset_path,
                      "--backend", "hausdorff",
                      "--workers", ",".join(f"{h}:{p}" for h, p in
                                            (w.address for w in workers)),
                      "--port", "0", "--ready-file", str(ready),
                      "--heartbeat-interval", "0", "--max-requests", "2"]
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.setdefault("cluster", main(front_argv)))
        thread.start()
        try:
            address = wait_for_ready(ready)
            assert main(["knn", "--data", dataset_path, "--query", "1",
                         "--k", "3", "--remote", address]) == 0
            out = capsys.readouterr().out
            assert "3NN of trajectory 1" in out
            assert "backend hausdorff" in out
            # The cluster's answer matches the plain local CLI path
            # bit-for-bit (the printed rows include the distances).
            assert main(["knn", "--data", dataset_path,
                         "--backend", "hausdorff", "--query", "1",
                         "--k", "3"]) == 0
            local_out = capsys.readouterr().out
            assert out.splitlines()[-3:] == local_out.splitlines()[-3:]
            assert any("#1:" in line for line in out.splitlines())
        finally:
            thread.join(timeout=60)
            for worker in workers:
                worker.close()
        assert not thread.is_alive()
        assert rc.get("cluster") == 0

    @pytest.mark.parametrize("live_first", [True, False])
    def test_a_failed_start_shuts_down_the_workers_it_reached(
            self, dataset_path, capsys, live_first):
        """``--shutdown-workers`` holds when the start fails: a worker the
        constructor joined before a dead address stops it (and one listed
        after it too). The failure is a one-line error and a non-zero
        exit, not a traceback."""
        from repro.api import ShardWorker

        worker = ShardWorker()
        live = "{}:{}".format(*worker.address)
        addresses = [live, "127.0.0.1:1"][::1 if live_first else -1]
        try:
            with pytest.raises(SystemExit) as exit_info:
                main(["cluster", "--data", dataset_path,
                      "--backend", "hausdorff", "--workers",
                      ",".join(addresses), "--port", "0",
                      "--heartbeat-interval", "0", "--connect-retries", "0",
                      "--shutdown-workers"])
            message = exit_info.value.code
            assert isinstance(message, str)       # exit status 1, no trace
            assert message.startswith("repro cluster: could not start:")
            assert "\n" not in message
            deadline = time.monotonic() + 5
            while not worker.closed and time.monotonic() < deadline:
                time.sleep(0.02)
            assert worker.closed
        finally:
            worker.close()

    def test_cluster_worker_serves_until_shutdown(self, tmp_path):
        import threading

        from repro.api.transport import SocketTransport, request

        ready = tmp_path / "worker-ready"
        rc = {}
        thread = threading.Thread(target=lambda: rc.setdefault(
            "worker", main(["cluster-worker", "--port", "0",
                            "--ready-file", str(ready)])))
        thread.start()
        try:
            host, port = wait_for_ready(ready).rsplit(":", 1)
            transport = SocketTransport.connect(host, int(port),
                                                retries=10)
            try:
                assert request(transport, "ping")["joined"] is False
                request(transport, "shutdown")
            finally:
                transport.close()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert rc.get("worker") == 0


class TestServeHttpCli:
    def test_serve_http_answers_json_knn(self, dataset_path, tmp_path,
                                         capsys):
        import json
        import threading
        import urllib.request

        from repro.api import SimilarityService

        ready = tmp_path / "http-ready"
        # Two HTTP requests (knn + healthz) trip max_requests, so the
        # gateway shuts itself down and the serve thread returns.
        argv = ["serve-http", "--data", dataset_path,
                "--backend", "hausdorff", "--port", "0",
                "--ready-file", str(ready), "--max-requests", "2"]
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.setdefault("serve", main(argv)))
        thread.start()
        try:
            address = wait_for_ready(ready)
            trajectories = load_trajectories(dataset_path)
            body = json.dumps({
                "queries": [np.asarray(trajectories[1]).tolist()],
                "k": 3, "exclude": 1,
            }).encode()
            request = urllib.request.Request(
                f"http://{address}/knn", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
                reply = json.loads(response.read())
            with urllib.request.urlopen(f"http://{address}/healthz",
                                        timeout=30) as response:
                assert json.loads(response.read())["status"] == "ok"
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert rc.get("serve") == 0
        assert "http gateway: backend hausdorff" in capsys.readouterr().out
        expected = SimilarityService(backend="hausdorff").add(trajectories)
        expected_d, expected_i = expected.knn(trajectories[1], k=3, exclude=1)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)
        np.testing.assert_allclose(np.asarray(reply["distances"]), expected_d)
