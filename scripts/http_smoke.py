"""End-to-end smoke for the HTTP/JSON gateway (``make http-smoke``).

Boots a real ``python -m repro serve-http`` process — frechet backend
sharded over two workers, ``--max-batch 1`` and a small
``--max-pending`` — waits for the ready file, then drives it with plain
``urllib``:

* one ``POST /knn`` whose answer must be bit-identical to a local
  ``SimilarityService`` over the same database (exact scan index);
* one ``POST /add`` with a string coordinate, which must be a ``400``
  naming the trajectory (only JSON numbers are coordinates);
* 20 sequential ``GET /healthz`` over one keep-alive ``http.client``
  connection, median under 10 ms — a reply written as head then body
  on a Nagle socket reads ~44 ms here (the client's delayed ACK);
* a flood of 8x ``max-pending`` concurrent one-query requests, served
  one query a flush: some must shed with ``429`` (the full queue), none
  may hang, and every ``200`` must carry the right neighbours;
* ``GET /metrics`` must parse as Prometheus text exposition.

Finally the server gets SIGTERM and must exit 0 (the CLI routes the
signal through the same graceful shutdown as Ctrl-C).
"""

import concurrent.futures
import http.client
import json
import os
import signal
import statistics
import sys
import tempfile
import time
import urllib.error
import urllib.request

from smoke_common import (
    TIMEOUT, fail, popen, repo_root, run, terminate, wait_for_ready,
)

sys.path.insert(0, os.path.join(repo_root(), "src"))

MAX_PENDING = 2
FLOOD = 8 * MAX_PENDING
KEEPALIVE_PROBES = 20
KEEPALIVE_MEDIAN_MS = 10.0


def post(url, route, body, timeout=TIMEOUT):
    request = urllib.request.Request(
        f"{url}{route}", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


def main() -> int:
    python = sys.executable

    with tempfile.TemporaryDirectory(prefix="repro-http-smoke-") as tmp:
        data = os.path.join(tmp, "city.npz")
        ready = os.path.join(tmp, "ready")

        generated = run([python, "-m", "repro", "generate", "--city", "porto",
                         "--count", "25", "--seed", "0", "--output", data])
        if generated.returncode != 0:
            return fail("http-smoke: dataset generation failed")

        server = popen([python, "-m", "repro", "serve-http", "--data", data,
                        "--backend", "frechet", "--workers", "2",
                        "--port", "0", "--ready-file", ready,
                        "--max-batch", "1",
                        "--max-pending", str(MAX_PENDING)])
        try:
            try:
                address = wait_for_ready(ready, server, "gateway")
            except RuntimeError as error:
                return fail(f"http-smoke: {error}")
            url = f"http://{address}"
            print(f"http-smoke: gateway ready on {address}", flush=True)

            # The ground truth: the same exact-scan service, in process.
            import numpy as np

            from repro.api import SimilarityService
            from repro.cli import load_trajectories

            trajectories = load_trajectories(data)
            local = SimilarityService(backend="frechet").add(trajectories)
            expected_d, expected_i = local.knn(trajectories[1], k=3,
                                               exclude=1)

            status, reply = post(url, "/knn", {
                "queries": [np.asarray(trajectories[1]).tolist()],
                "k": 3, "exclude": 1,
            })
            if status != 200:
                return fail(f"http-smoke: knn returned {status}: {reply}")
            got_d = np.asarray(reply["distances"], dtype=np.float64)
            got_i = np.asarray(reply["ids"], dtype=np.int64)
            if got_i.tobytes() != expected_i.tobytes():
                return fail(f"http-smoke: ids diverge from the local "
                            f"service: {got_i} != {expected_i}")
            if got_d.tobytes() != expected_d.tobytes():
                return fail("http-smoke: distances diverge from the local "
                            "service")
            print("http-smoke: knn parity OK", flush=True)

            points = np.asarray(trajectories[2]).tolist()
            points[0][0] = str(points[0][0])
            status, reply = post(url, "/add", {"trajectories": [points]})
            if status != 400 or "'trajectories'[0]" not in reply["error"]:
                return fail(f"http-smoke: a string coordinate in /add got "
                            f"{status}: {reply}")
            print("http-smoke: string coordinate refused with 400",
                  flush=True)

            # Keep-alive latency: the real process must not make a
            # client wait out a delayed ACK between head and body.
            host, _, port = address.rpartition(":")
            connection = http.client.HTTPConnection(host, int(port),
                                                    timeout=TIMEOUT)
            laps_ms = []
            try:
                for _ in range(KEEPALIVE_PROBES):
                    start = time.perf_counter()
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    response.read()
                    laps_ms.append((time.perf_counter() - start) * 1000)
                    if response.status != 200:
                        return fail(f"http-smoke: /healthz returned "
                                    f"{response.status}")
            finally:
                connection.close()
            median_ms = statistics.median(laps_ms)
            if median_ms >= KEEPALIVE_MEDIAN_MS:
                return fail(f"http-smoke: keep-alive /healthz median "
                            f"{median_ms:.1f} ms >= {KEEPALIVE_MEDIAN_MS} ms "
                            "(a reply is waiting for a delayed ACK?)")
            print(f"http-smoke: keep-alive latency OK ({KEEPALIVE_PROBES} "
                  f"GET /healthz, median {median_ms:.2f} ms)", flush=True)

            # Flood: 8x max-pending concurrent requests, one query each,
            # and the queue serves one query a flush: some must shed with
            # 429, none may hang, every 200 must be correct.
            flood_d, flood_i = local.knn(trajectories, k=5)
            picks = [i % len(trajectories) for i in range(FLOOD)]
            with concurrent.futures.ThreadPoolExecutor(FLOOD) as pool:
                futures = [pool.submit(post, url, "/knn", {
                    "queries": [np.asarray(trajectories[i]).tolist()],
                    "k": 5}) for i in picks]
                outcomes = [f.result(timeout=TIMEOUT) for f in futures]
            statuses = sorted(status for status, _ in outcomes)
            if set(statuses) - {200, 429}:
                return fail(f"http-smoke: unexpected statuses {statuses}")
            if 429 not in statuses:
                return fail("http-smoke: the flood never shed (expected "
                            "some 429s)")
            if 200 not in statuses:
                return fail("http-smoke: the flood starved every request")
            for i, (status, reply) in zip(picks, outcomes):
                if status != 200:
                    continue
                if (np.asarray(reply["ids"], dtype=np.int64).tobytes()
                        != flood_i[i:i + 1].tobytes()):
                    return fail("http-smoke: a flooded request returned "
                                "wrong neighbours")
                if (np.asarray(reply["distances"],
                               dtype=np.float64).tobytes()
                        != flood_d[i:i + 1].tobytes()):
                    return fail("http-smoke: a flooded request returned "
                                "wrong distances")
            shed = statuses.count(429)
            print(f"http-smoke: flood OK ({FLOOD - shed}x 200, {shed}x 429, "
                  "all answers correct)", flush=True)

            # /metrics must be well-formed Prometheus text exposition.
            with urllib.request.urlopen(f"{url}/metrics",
                                        timeout=TIMEOUT) as response:
                text = response.read().decode()
            seen = set()
            for line in text.strip().splitlines():
                if line.startswith("#"):
                    continue
                name = line.split("{", 1)[0].split(" ", 1)[0]
                float(line.rsplit(" ", 1)[1])  # every sample parses
                seen.add(name)
            for required in ("repro_gateway_requests_total",
                             "repro_gateway_request_latency_ms_bucket",
                             "repro_gateway_shed_total",
                             "repro_gateway_database_size",
                             "repro_gateway_shard_up"):
                if required not in seen:
                    return fail(f"http-smoke: /metrics lacks {required}")
            print("http-smoke: /metrics OK", flush=True)

            # SIGTERM must run the same graceful shutdown as Ctrl-C.
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=TIMEOUT)
            if server.returncode != 0:
                return fail(f"http-smoke: gateway exited "
                            f"{server.returncode} on SIGTERM")
        finally:
            terminate(server)
    print("http-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
