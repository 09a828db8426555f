"""The BENCH_*.json merge shared by ``benchmarks/bench_{encode,index}.py``."""

from benchmarks.common import merge_bench_scenarios


def test_rerunning_a_subset_keeps_the_other_scenarios():
    first = merge_bench_scenarios(
        None, {"pq": {"results": {"qps": 10.0}},
               "ivf": {"results": {"qps": 20.0}}}, {"count": 1000})
    second = merge_bench_scenarios(
        first, {"ivf": {"results": {"qps": 25.0}}}, {"count": 2000})
    assert second["scenarios"]["pq"] == first["scenarios"]["pq"]
    assert second["scenarios"]["ivf"] == {"results": {"qps": 25.0},
                                          "config": {"count": 2000}}
    # the prior record is merged into, not mutated
    assert first["scenarios"]["ivf"]["results"] == {"qps": 20.0}
