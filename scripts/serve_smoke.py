"""End-to-end smoke for the remote serving stack (``make serve-smoke``).

Boots a real ``python -m repro serve`` process on a random port against
the scan-path frechet backend (no index, no training, no checkpoint),
waits for the ready file, runs one ``knn --remote`` round-trip through a
second process, and exits nonzero if any step fails or stalls. The server
shuts itself down via ``--max-requests`` after the round-trip.
"""

import os
import sys
import tempfile

from smoke_common import (
    TIMEOUT,
    fail,
    popen,
    run,
    terminate,
    wait_for_ready,
)


def main() -> int:
    python = sys.executable

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        data = os.path.join(tmp, "city.npz")
        ready = os.path.join(tmp, "ready")

        generated = run([python, "-m", "repro", "generate", "--city", "porto",
                         "--count", "25", "--seed", "0", "--output", data])
        if generated.returncode != 0:
            return fail("serve-smoke: dataset generation failed")

        # knn --remote issues two requests (knn + stats): the server then
        # trips --max-requests and exits on its own.
        server = popen([python, "-m", "repro", "serve", "--data", data,
                        "--backend", "frechet", "--port", "0",
                        "--ready-file", ready, "--max-requests", "2"])
        try:
            try:
                address = wait_for_ready(ready, server, "server")
            except RuntimeError as error:
                return fail(f"serve-smoke: {error}")
            print(f"serve-smoke: server ready on {address}", flush=True)

            result = run([python, "-m", "repro", "knn", "--data", data,
                          "--query", "1", "--k", "3", "--remote", address],
                         capture_output=True, text=True)
            sys.stdout.write(result.stdout)
            sys.stderr.write(result.stderr)
            if result.returncode != 0:
                return fail("serve-smoke: remote knn failed")
            if "#1:" not in result.stdout:
                return fail("serve-smoke: remote knn returned no neighbours")

            server.wait(timeout=TIMEOUT)
            if server.returncode != 0:
                return fail(f"serve-smoke: server exited {server.returncode}")
        finally:
            terminate(server)
    print("serve-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
