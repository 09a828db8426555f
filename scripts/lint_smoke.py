"""End-to-end smoke for the lint gate.

Drives ``python -m repro lint`` as a real subprocess — the same entry
point ``make lint`` and CI use — and checks the whole contract:

* ``src/`` lints clean (exit 0) with every suppression carrying a reason;
* the JSON format is well-formed;
* a known-bad file makes the exit code 1 and names the rule;
* ``--list-rules`` prints the catalog, and it is exactly the rules the
  full run of step 1 ran.

Exits nonzero on the first failure, like the other smoke scripts.
"""

import json
import os
import sys
import tempfile
import textwrap

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from smoke_common import repo_root, run  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL: {message}", flush=True)
    sys.exit(1)


def main() -> None:
    root = repo_root()
    lint = [sys.executable, "-m", "repro", "lint"]

    # 1. the dogfood gate: src/ is clean, JSON contract holds
    proc = run(lint + ["src", "--format", "json"], cwd=root,
               capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"`repro lint src` exited {proc.returncode}:\n{proc.stdout}")
    payload = json.loads(proc.stdout)
    if payload["version"] != 1 or payload["ok"] is not True:
        fail(f"unexpected JSON report shape: {payload}")
    if payload["findings"]:
        fail(f"src/ must lint clean, got {payload['findings']}")
    if payload["files"] < 50:
        fail(f"expected to scan the whole src tree, saw {payload['files']}")
    if payload["suppressions"] < 1:
        fail("expected the documented by-design suppressions to be counted")
    print(f"lint: src clean ({payload['files']} files, "
          f"{len(payload['rules'])} rules, "
          f"{payload['suppressions']} suppressions)", flush=True)

    # 2. a known-bad file must fail with the right rule id
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.py")
        with open(bad, "w") as handle:
            handle.write(textwrap.dedent("""
                import threading

                def start(target):
                    return threading.Thread(target=target)
            """))
        proc = run(lint + [bad, "--format", "json"], cwd=root,
                   capture_output=True, text=True)
        if proc.returncode != 1:
            fail(f"bad file should exit 1, got {proc.returncode}")
        findings = json.loads(proc.stdout)["findings"]
        if [f["rule"] for f in findings] != ["C203"]:
            fail(f"expected exactly one C203 finding, got {findings}")
    print("lint: known-bad file rejected with C203", flush=True)

    # 3. the rule catalog is printable
    proc = run(lint + ["--list-rules"], cwd=root,
               capture_output=True, text=True)
    catalog = [line.split()[0] for line in proc.stdout.splitlines()
               if line[:1].isalpha()]
    if proc.returncode != 0 or catalog != payload["rules"]:
        fail(f"--list-rules printed {catalog}, a full run ran "
             f"{payload['rules']}")
    print("lint smoke: OK", flush=True)


if __name__ == "__main__":
    main()
