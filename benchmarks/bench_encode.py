"""Encode-throughput benchmark: fused inference engine vs reference path.

Two families of scenario, every timing a median with its quartiles:

* the **sweep** (``reference_b*`` / ``fast_<dtype>_b*``) — trajectories per
  second of ``TrajCL.encode`` on a synthetic-preset database across batch
  sizes, for the reference Tensor-graph path and the fused numpy
  :class:`~repro.core.InferenceEncoder` in float64 and float32 (``batch``
  is the workload handed to one ``encode(batch_size=batch)`` call);
* the **e2e shape** — the encoder the end-to-end benchmark serves
  (d = 64, ``max_len`` 32, dual variant): 5000 trajectories in calls of
  256 (the service's ``batch_size``), and one trajectory per call.
  ``e2e_chunk256`` / ``e2e_single`` ask for float64 by name, so the row
  means the same thing in every checkout; ``serving_default_b256`` /
  ``serving_default_b1`` name no dtype and record the one that came back
  — they follow whatever the product serves. ``featurise_b256`` is the
  part of a 256-call that is not the forward (``encode_batch``, padded
  to the batch's longest, on the served tables). These are the numbers the
  ROADMAP's encoder budget quotes.

Results merge scenario-by-scenario into
``benchmarks/results/BENCH_encode.json`` (scenarios not re-run keep
their previous numbers), so the encode perf trajectory accumulates across
PRs instead of resetting. ``--label`` suffixes the e2e row names, and the
script only needs ``TrajCL.encode``, so a before/after pair is the same
command run against two checkouts::

    PYTHONPATH=/path/to/parent/src python benchmarks/bench_encode.py \
        --scenarios e2e --label parent --output benchmarks/results/BENCH_encode.json
    python benchmarks/bench_encode.py --output benchmarks/results/BENCH_encode.json

Run via ``make bench-encode`` (which pins one BLAS thread, as the e2e
benchmark does). Not part of the tier-1 test suite.

``--base <rev>`` is an in-process, interleaved A/B of the encoder alone,
for a change to ``src/repro/core/infer.py`` or ``features.py``. It ``git
archive``\ s both files as of ``rev`` into a temp dir and loads them as
second modules of ``repro.core`` (so they run on this checkout's ``nn``),
exports the base engine on the base ``FeatureEnrichment`` and this tree's
on its own, from one e2e-shape model, and alternates their encode of the
5000 trajectories in calls of 256 for ``--rounds`` rounds (default 10;
the side that goes first swaps every round), pinned to one CPU and timed
in process CPU time. It prints the median paired ratio
(change / base, below 1 is faster), the wins, the smallest and largest
ratio and the largest ``|Δ|`` between the two sides' embeddings; with
``--output`` it merges that as the ``ab_chunk256@<base commit>`` row::

    python benchmarks/bench_encode.py --base HEAD~1 --rounds 16 \
        --output benchmarks/results/BENCH_encode.json

``--stages`` splits the same encode by stage (ms per 5000-trajectory
pass, median and quartiles over ``--rounds``, one CPU): the exclusive
time of the engine's methods named in :data:`_STAGE_METHODS` — FFN, QKV,
LayerNorm, logits, project, spatial, fusion, featuriser — and ``other``
for the rest, beside one unwrapped pass per round (the wrappers' own
cost). With ``--base <rev>`` it splits ``rev``'s engine too, loaded as
above, the two sides alternating every round. With ``--output`` it
merges the ``stages_chunk256`` row (and ``stages_chunk256@<base
commit>``)::

    python benchmarks/bench_encode.py --stages --base HEAD~1 --rounds 9 \
        --output benchmarks/results/BENCH_encode.json

Timings taken in separate processes can drift by more than an encoder
change moves them (on a busy 2-vCPU machine the same 5000-trajectory
encode read 0.65 to 0.97 s within minutes); pairs taken in one process
cancel that drift.
The script defaults ``OPENBLAS_NUM_THREADS`` to 1 when it is unset.

Comparing two checkouts — here or with ``benchmarks/e2e`` — compare trees
whose ``__pycache__`` is in the same state (both without, e.g. ``git
clone`` and a ``git ls-files | tar`` copy, or both after the same warm-up
run). The e2e children write no bytecode, so a side with stale ``.pyc``
for the files a change touched recompiles them in every process it
starts: sizing the PR that added this note, such a change side read
``edge_http`` ``setup_s`` +0.12 s and ``peak_rss_mb`` +6 MB (three child
interpreters compiling at start) where the like-for-like pair read
−0.08 s and ±0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence

# one BLAS thread, as the e2e benchmark runs the encoder (read at import)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the modules ``--base`` swaps, relative to the repository root: the
#: engine and the featuriser it runs on
_ENGINE = "src/repro/core/infer.py"
_FEATURES = "src/repro/core/features.py"

#: ``--stages``: the methods whose exclusive time makes each stage (a name
#: a checkout lacks is skipped). Under a dual layer's spatial blocks and
#: under the featuriser every nested call counts to them; ``logits`` is
#: ``K Qᵀ`` with its bias, exp2, sums and guard; ``fusion`` is the
#: DualSTB's own lines (Eq. 15); ``other`` is what is left (sort, gather,
#: residual adds, pooling, bucketing).
_STAGE_METHODS = (
    ("features", "FeatureEnrichment", "prepare", "featuriser"),
    ("features", "FeatureEnrichment", "point_features", "featuriser"),
    ("features", "FeatureEnrichment", "pad_features", "featuriser"),
    ("infer", "_TransformerLayer", "__call__", "spatial"),
    ("infer", "_Residual", "__call__", "other"),
    ("infer", "_DualLayer", "__call__", "fusion"),
    ("infer", "_FeedForward", "__call__", "FFN"),
    ("infer", "_LayerNormP", "__call__", "LayerNorm"),
    ("infer", "_LayerNormP", "moments", "LayerNorm"),
    ("infer", "_Attention", "_qkv", "QKV"),
    ("infer", "_Attention", "coefficients", "logits"),
    ("infer", "_Attention", "_logits", "logits"),
    ("infer", "_Attention", "project", "project"),
)
_STICKY_STAGES = ("spatial", "featuriser")
_STAGES = ("FFN", "QKV", "LayerNorm", "logits", "project", "spatial",
           "fusion", "featuriser", "other")

#: the end-to-end benchmark's encoder shape (``benchmarks/e2e/workloads.py``)
E2E_DIM, E2E_MAX_LEN = 64, 32
E2E_COUNT, E2E_CHUNK, E2E_SINGLES = 5000, 256, 400


def _build(args, count: int, dim: int, max_len: int):
    from repro.api import get_backend
    from repro.datasets import generate_city, get_preset

    trajectories = generate_city(get_preset(args.city), count, seed=args.seed)
    # Throughput does not depend on training; epochs=0 keeps setup fast.
    backend = get_backend(
        "trajcl", trajectories=trajectories, dim=dim, max_len=max_len,
        epochs=args.train_epochs, train=args.train_epochs > 0, seed=args.seed,
    )
    return backend.model, trajectories


def _time_calls(encode: Callable, batches: Sequence[Sequence],
                repeats: int) -> Dict:
    """Median and quartiles of ms per trajectory over ``repeats`` passes
    of one ``encode(batch)`` call per batch, after one warm-up call
    (engine compilation, caches, BLAS threads)."""
    encode(batches[0])
    samples = []
    for _ in range(repeats):
        for batch in batches:
            start = time.perf_counter()
            encode(batch)
            samples.append((time.perf_counter() - start) * 1e3 / len(batch))
    q1, median, q3 = (round(float(q), 4)
                      for q in np.percentile(samples, [25, 50, 75]))
    return {
        "ms_per_traj": {"median": median, "q1": q1, "q3": q3,
                        "samples": len(samples)},
        "traj_per_sec": round(1e3 / max(median, 1e-9), 2),
    }


def run_sweep(args) -> Dict[str, Dict]:
    model, trajectories = _build(args, args.count, args.dim, args.max_len)
    scenarios: Dict[str, Dict] = {}
    for batch in args.batch_sizes:
        batch = min(batch, len(trajectories))
        subset = [trajectories[:batch]]
        reference = _time_calls(
            lambda b: model.encode(b, batch_size=batch, fast=False,
                                   dtype="float64"),
            subset, args.repeats,
        )
        scenarios[f"reference_b{batch}"] = {"results": {
            "mode": "reference", "dtype": "float64", "batch": batch,
            **reference,
        }}
        for dtype in args.dtypes:
            fast = _time_calls(
                lambda b: model.encode(b, batch_size=batch, fast=True,
                                       dtype=dtype),
                subset, args.repeats,
            )
            scenarios[f"fast_{dtype}_b{batch}"] = {"results": {
                "mode": "fast", "dtype": dtype, "batch": batch, **fast,
                "reference_traj_per_sec": reference["traj_per_sec"],
                "speedup_vs_reference": round(
                    fast["traj_per_sec"] / reference["traj_per_sec"], 2),
            }}
    return scenarios


def run_e2e_shape(args) -> Dict[str, Dict]:
    model, trajectories = _build(args, E2E_COUNT, E2E_DIM, E2E_MAX_LEN)
    suffix = f"@{args.label}" if args.label else ""
    chunks = _e2e_chunks(trajectories)
    singles = [[t] for t in trajectories[:E2E_SINGLES]]

    def float64(batch):
        return model.encode(batch, dtype="float64")

    served = str(model.encode(singles[0]).dtype)
    features = model.inference_encoder().features   # the served tables

    def featurise(batch):
        features.encode_batch(
            batch, pad_len=min(features.max_len, max(map(len, batch))))

    rows = {f"featurise_b{E2E_CHUNK}" + suffix: {"results": {
        "mode": "features", "dtype": served, "batch": E2E_CHUNK,
        **_time_calls(featurise, chunks, 3)}}}
    for chunk_row, single_row, encode, dtype in (
            (f"e2e_chunk{E2E_CHUNK}", "e2e_single", float64, "float64"),
            (f"serving_default_b{E2E_CHUNK}", "serving_default_b1",
             model.encode, served)):
        row = {"mode": "fast", "dtype": dtype}
        rows[chunk_row + suffix] = {"results": {
            **row, "batch": E2E_CHUNK, **_time_calls(encode, chunks, 3)}}
        rows[single_row + suffix] = {"results": {
            **row, "batch": 1, **_time_calls(encode, singles, 1)}}
    return rows


def _pin_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _e2e_chunks(trajectories) -> List[Sequence]:
    return [trajectories[start:start + E2E_CHUNK]
            for start in range(0, E2E_COUNT, E2E_CHUNK)]


def _quartiles(values) -> Dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


class _StageClock:
    """Exclusive wall time per stage across nested wrapped calls."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.totals = dict.fromkeys(_STAGES, 0.0)
        self.stack = ["other"]
        self.mark = time.perf_counter()

    def switch(self) -> None:
        now = time.perf_counter()
        self.totals[self.stack[-1]] += now - self.mark
        self.mark = now

    def wrap(self, stage: str, function: Callable) -> Callable:
        def timed(*args, **kwargs):
            self.switch()
            top = self.stack[-1]
            self.stack.append(top if top in _STICKY_STAGES else stage)
            try:
                return function(*args, **kwargs)
            finally:
                self.switch()
                self.stack.pop()
        return timed


def run_stages(args) -> Dict[str, Dict]:
    """The e2e-shape encode split by stage (:data:`_STAGE_METHODS`): ms
    per 5000-trajectory pass in calls of 256, median and quartiles over
    ``--rounds``, one CPU. Each round also times one pass unwrapped, the
    figure the wrappers' own cost is read against. Under ``--base`` the
    base revision's engine is split too, in the same process, the two
    sides alternating every round (their drift cancels)."""
    import importlib

    _pin_one_cpu()
    model, trajectories = _build(args, E2E_COUNT, E2E_DIM, E2E_MAX_LEN)
    chunks = _e2e_chunks(trajectories)
    modules = {name: importlib.import_module(f"repro.core.{name}")
               for name in ("infer", "features")}
    sides = {f"@{args.label}" if args.label else "":
             (model.inference_encoder(), modules)}
    if args.base:
        modules = load_base_modules(args.base)
        sides[f"@{_short_commit(args.base)}"] = (
            base_engine(modules, model), modules)
    clock = _StageClock()
    patches = {}  # side -> (plain, wrapped) (class, name, function) lists
    for side, (_, owned) in sides.items():
        plain, wrapped = patches[side] = [], []
        for module, owner_name, name, stage in _STAGE_METHODS:
            owner = getattr(owned[module], owner_name, None)
            if owner is not None and name in vars(owner):
                plain.append((owner, name, vars(owner)[name]))
                wrapped.append((owner, name,
                                clock.wrap(stage, vars(owner)[name])))

    def encode(side: str, timed: bool) -> float:
        engine = sides[side][0]
        for owner, name, function in patches[side][timed]:
            setattr(owner, name, function)
        clock.reset()
        start = time.perf_counter()
        for chunk in chunks:
            engine.encode(chunk)
        clock.switch()
        return (time.perf_counter() - start) * 1e3

    samples = {side: {name: [] for name in (*_STAGES, "total", "unwrapped")}
               for side in sides}
    order = list(sides)
    try:
        for side in order:
            encode(side, False)                                 # warm-up
        for round_ in range(args.rounds):
            for side in order[round_ % 2:] + order[:round_ % 2]:
                samples[side]["unwrapped"].append(encode(side, False))
                samples[side]["total"].append(encode(side, True))
                for name, seconds in clock.totals.items():
                    samples[side][name].append(seconds * 1e3)
    finally:
        for plain, _ in patches.values():
            for owner, name, function in plain:
                setattr(owner, name, function)
    from repro.eval import format_table

    rows, table = {}, []
    for side, values in samples.items():
        stages = {name: _quartiles(column) for name, column in values.items()}
        rows[f"stages_chunk{E2E_CHUNK}{side}"] = {"results": {
            "mode": "stages", "dtype": str(sides[side][0].dtype),
            "batch": E2E_CHUNK, "rounds": args.rounds, "ms": stages}}
        total = stages["total"]["median"]
        table += [[side or "this tree", name, row["median"],
                   f"{row['q1']}-{row['q3']}",
                   f"{row['median'] / total:.1%}" if name in _STAGES else ""]
                  for name, row in stages.items()]
    print(format_table(["side", "stage", "ms", "quartiles", "share"], table))
    return rows


def _short_commit(rev: str) -> str:
    return subprocess.run(
        ["git", "-C", _ROOT, "rev-parse", "--short", rev],
        capture_output=True, check=True, text=True).stdout.strip()


def _load_base_module(rev: str, path: str, name: str):
    """``path`` as of ``rev``, loaded as the module ``repro.core.<name>``
    beside this checkout's (its relative imports resolve here)."""
    import importlib.util

    import repro.core  # noqa: F401  (the package the copy joins)

    archive = subprocess.run(["git", "-C", _ROOT, "archive", rev, path],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extract(path, tmp)
        spec = importlib.util.spec_from_file_location(
            f"repro.core.{name}", os.path.join(tmp, path))
        module = importlib.util.module_from_spec(spec)
        module.__package__ = "repro.core"
        spec.loader.exec_module(module)
    return module


def load_base_modules(rev: str) -> Dict:
    """``rev``'s ``infer.py`` and ``features.py`` as second modules of
    this checkout's ``repro.core``, keyed ``infer`` / ``features``."""
    return {"infer": _load_base_module(rev, _ENGINE, "_base_infer"),
            "features": _load_base_module(rev, _FEATURES, "_base_features")}


def base_engine(modules: Dict, model):
    """``model``'s engine as the base ``infer`` module exports it, on the
    base ``FeatureEnrichment``."""
    from types import SimpleNamespace

    own = model.features
    base = SimpleNamespace(
        encoder=model.encoder, encoder_variant=model.encoder_variant,
        features=modules["features"].FeatureEnrichment(
            own.grid, own.cell_embeddings, own.max_len))
    return modules["infer"].InferenceEncoder.from_model(base)


def run_ab(args) -> Dict[str, Dict]:
    """Interleaved A/B of the base revision's engine against this one's on
    the e2e shape: paired CPU-time ratios, wins and the embeddings' largest
    difference."""
    from repro.core.infer import InferenceEncoder

    commit = _short_commit(args.base)
    _pin_one_cpu()
    model, trajectories = _build(args, E2E_COUNT, E2E_DIM, E2E_MAX_LEN)
    engines = {"base": base_engine(load_base_modules(args.base), model),
               "change": InferenceEncoder.from_model(model)}
    chunks = _e2e_chunks(trajectories)

    def encode(side: str):
        start = time.process_time()
        out = [engines[side].encode(chunk) for chunk in chunks]
        return time.process_time() - start, np.concatenate(out)

    outputs = {side: encode(side)[1] for side in engines}     # warm-up
    seconds: Dict[str, List[float]] = {"base": [], "change": []}
    for round_ in range(args.rounds):
        for side in (("base", "change") if round_ % 2 == 0
                     else ("change", "base")):
            seconds[side].append(encode(side)[0])
    ratios = np.array(seconds["change"]) / np.array(seconds["base"])
    delta = np.abs(outputs["change"].astype(np.float64) - outputs["base"])

    result = {
        "mode": "ab", "dtype": str(outputs["change"].dtype),
        "batch": E2E_CHUNK, "base": commit, "rounds": args.rounds,
        "base_s": _quartiles(seconds["base"]),
        "change_s": _quartiles(seconds["change"]),
        "ratio": {**_quartiles(ratios), "min": round(float(ratios.min()), 4),
                  "max": round(float(ratios.max()), 4)},
        "wins": int((ratios < 1.0).sum()),
        "max_abs_diff": float(delta.max()),
        "max_abs_diff_rel": float(delta.max() / np.abs(outputs["base"]).max()),
    }
    print(f"base {args.base} ({commit}) vs this tree, e2e shape, "
          f"{E2E_COUNT} trajectories in calls of {E2E_CHUNK}, "
          f"{args.rounds} rounds, CPU time")
    print(f"  base   {result['base_s']['median']:.4f} s   "
          f"change {result['change_s']['median']:.4f} s")
    print(f"  median paired ratio {result['ratio']['median']:.4f}  wins "
          f"{result['wins']}/{args.rounds}  min {result['ratio']['min']:.4f}"
          f"  max {result['ratio']['max']:.4f}")
    print(f"  max |delta| {result['max_abs_diff']:.3g} "
          f"({result['max_abs_diff_rel']:.3g} of the largest magnitude)")
    return {f"ab_chunk{E2E_CHUNK}@{commit}": {"results": result}}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="TrajCL encode-throughput benchmark (fast vs reference)"
    )
    parser.add_argument("--city", default="porto",
                        choices=["porto", "chengdu", "xian", "germany"])
    parser.add_argument("--count", type=int, default=256,
                        help="synthetic database size")
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--max-len", type=int, default=64)
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=[32, 256])
    parser.add_argument("--dtypes", nargs="+", default=["float64", "float32"],
                        choices=["float32", "float64"])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed calls per sweep scenario")
    parser.add_argument("--scenarios", nargs="+", default=["sweep", "e2e"],
                        choices=["sweep", "e2e"])
    parser.add_argument("--label",
                        help="suffix the e2e rows `@label` (a before/after "
                             "pair from two checkouts in one record)")
    parser.add_argument("--base", metavar="REV",
                        help="instead of the scenarios: an interleaved "
                             "in-process A/B of REV's infer.py and "
                             "features.py against this tree's, on the e2e "
                             "shape")
    parser.add_argument("--rounds", type=int, default=10,
                        help="paired rounds of the --base A/B, or rounds "
                             "of --stages")
    parser.add_argument("--stages", action="store_true",
                        help="instead of the scenarios: the e2e-shape "
                             "encode split by stage (stages_chunk256); with "
                             "--base, REV's too, interleaved")
    parser.add_argument("--train-epochs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output",
                        help="merge the result JSON here, keyed by scenario "
                             "(e.g. benchmarks/results/BENCH_encode.json)")
    args = parser.parse_args(argv)

    shared = {"city": args.city, "train_epochs": args.train_epochs,
              "seed": args.seed}
    e2e_config = {**shared, "count": E2E_COUNT, "dim": E2E_DIM,
                  "max_len": E2E_MAX_LEN}
    runs = []  # (scenarios, the config they ran under)
    if args.stages:
        runs.append((run_stages(args), e2e_config))
    elif args.base:
        runs.append((run_ab(args), e2e_config))
    else:
        if "sweep" in args.scenarios:
            runs.append((run_sweep(args), {
                **shared, "count": args.count, "dim": args.dim,
                "max_len": args.max_len, "repeats": args.repeats}))
        if "e2e" in args.scenarios:
            runs.append((run_e2e_shape(args), e2e_config))
    scenarios = {name: row for rows, _ in runs for name, row in rows.items()}

    from repro.eval import format_table

    rows: List[List] = []
    for name in sorted(scenarios):
        r = scenarios[name]["results"]
        if "ms_per_traj" not in r:  # the A/B row printed its own summary
            continue
        ms = r["ms_per_traj"]
        rows.append([name, r["batch"], r["dtype"], ms["median"],
                     f"{ms['q1']}-{ms['q3']}", r["traj_per_sec"],
                     r.get("speedup_vs_reference", "")])
    if rows:
        print(format_table(
            ["scenario", "batch", "dtype", "ms/traj", "quartiles", "traj/s",
             "vs reference"], rows))

    if args.output:
        from common import merge_bench_scenarios

        existing = None
        if os.path.exists(args.output):
            try:
                with open(args.output) as handle:
                    existing = json.load(handle)
            except (OSError, ValueError):
                existing = None
        merged = existing
        for rows, ran_under in runs:
            merged = merge_bench_scenarios(merged, rows, ran_under)
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w") as handle:
            json.dump(merged, handle, indent=2)
        print(f"written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
