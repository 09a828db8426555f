"""Every ``.npz`` that holds trajectories lays them out as the two arrays
of ``repro.trajectory.pack_trajectories``: what a writer puts in a file
does not depend on how many trajectories it writes."""

import os

import numpy as np
import pytest

from repro.api import ClusterCoordinator, ShardWorker, SimilarityService
from repro.cli import save_trajectories


def write_dataset(directory, trajectories):
    path = os.path.join(directory, "data.npz")
    save_trajectories(path, trajectories)
    return path


def write_service(directory, trajectories):
    path = os.path.join(directory, "service.npz")
    SimilarityService(backend="hausdorff").add(trajectories).save(path)
    return path


def write_cluster(directory, trajectories):
    worker = ShardWorker()
    try:
        with ClusterCoordinator([worker.address], backend="hausdorff",
                                heartbeat_interval=0) as cluster:
            cluster.add(trajectories)
            cluster.save(directory)
    finally:
        worker.close()
    return os.path.join(directory, "shard_0000.npz")


@pytest.mark.parametrize("write", [write_dataset, write_service,
                                   write_cluster])
def test_member_names_do_not_depend_on_the_trajectory_count(tmp_path,
                                                            write):
    rng = np.random.default_rng(7)
    members = []
    for count in (1, 50):
        trajectories = [np.cumsum(rng.normal(size=(int(length), 2)), axis=0)
                        for length in rng.integers(1, 12, size=count)]
        directory = tmp_path / f"n{count}"
        directory.mkdir()
        with np.load(write(str(directory), trajectories)) as archive:
            members.append(sorted(archive.files))
    assert members[0] == members[1]
