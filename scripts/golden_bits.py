"""Print the ``TestGoldenBits`` digests for the float32 kernels in use.

``tests/core/test_infer.py::TestGoldenBits`` pins the served float32
embeddings of one fixed model as sha256 digests, keyed by a probe of the
float32 matmul / exp kernels this process runs (OpenBLAS picks them by
CPU; an unknown key skips). This prints the ``_GOLDEN`` entry for the
current kernels, ready to paste, and says per batch size whether it
matches the recorded digest.

``make golden-bits`` runs it twice: on the native kernels and under
``OPENBLAS_CORETYPE=Haswell``. So one AVX-512 machine re-records both
recorded kernel families after an encoder change that is meant to change
the bits. Always exits 0: it reports, the test gates.
"""

from __future__ import annotations

import hashlib
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]

from tests.core.test_infer import (  # noqa: E402
    _GOLDEN,
    _float32_kernels,
    golden_batch,
    golden_model,
)


def main() -> int:
    kernels = _float32_kernels()
    recorded = _GOLDEN.get(kernels, {})
    family = os.environ.get("OPENBLAS_CORETYPE", "native")
    print(f"# OPENBLAS_CORETYPE={family}: kernels {kernels}"
          f" ({'recorded' if recorded else 'no entry'})")
    model, batch = golden_model(), golden_batch()
    lines = []
    for batch_size in sorted(recorded or (1, 7, 256)):
        out = model.encode(batch, batch_size=batch_size)
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        status = ("matches" if recorded.get(batch_size) == digest
                  else "differs" if recorded else "new")
        lines.append(f'        {batch_size}: "{digest}",  # {status}')
    print(f'    "{kernels}": {{')
    print("\n".join(lines))
    print("    },")
    return 0


if __name__ == "__main__":
    sys.exit(main())
