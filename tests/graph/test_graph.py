"""Tests for the grid graph, biased walks, SGNS and node2vec pipeline."""

import sys

import numpy as np
import pytest

from repro.graph import (
    GridGraph,
    SkipGramModel,
    build_training_pairs,
    generate_walks,
    node2vec_embeddings,
)
from repro.trajectory import Grid


def make_grid(cols=6, rows=4):
    return Grid(0, 0, cols * 10, rows * 10, cell_size=10)


class TestGridGraph:
    def test_neighbor_table_matches_grid(self):
        grid = make_grid()
        graph = GridGraph(grid)
        for cell in range(grid.n_cells):
            padded = graph.neighbors_padded[cell]
            from_table = sorted(int(x) for x in padded[padded != GridGraph.PAD])
            assert from_table == sorted(grid.neighbors(cell))

    def test_degrees(self):
        graph = GridGraph(make_grid())
        assert graph.degrees[0] == 3          # corner
        assert graph.degrees.max() == 8       # interior
        # total degree = 2 * number of edges of an 8-neighbour 6x4 grid
        assert graph.degrees.sum() == graph.to_networkx().number_of_edges() * 2

    def test_are_adjacent_vectorized(self):
        grid = make_grid()
        graph = GridGraph(grid)
        a = np.array([0, 0, 0])
        b = np.array([1, grid.n_cols, grid.n_cols + 5])
        adj = graph.are_adjacent(a, b)
        assert adj[0] and adj[1] and not adj[2]

    def test_self_is_not_adjacent(self):
        graph = GridGraph(make_grid())
        assert not graph.are_adjacent(np.array([5]), np.array([5]))[0]

    def test_networkx_roundtrip(self):
        graph = GridGraph(make_grid(3, 3))
        g = graph.to_networkx()
        assert g.number_of_nodes() == 9
        assert g.number_of_edges() == 20  # 8-neighbour 3x3 grid: 12 + 8 diagonals

    def test_to_networkx_without_networkx_names_method_and_package(
            self, monkeypatch):
        # None in sys.modules makes `import networkx` raise ImportError,
        # exactly as on a box where the package is not installed.
        monkeypatch.setitem(sys.modules, "networkx", None)
        graph = GridGraph(make_grid(3, 3))  # everything else still works
        with pytest.raises(ImportError, match=r"to_networkx.*'networkx'"):
            graph.to_networkx()


class TestWalks:
    def test_shape_and_validity(self):
        graph = GridGraph(make_grid())
        walks = generate_walks(graph, num_walks=2, walk_length=10,
                               rng=np.random.default_rng(0))
        assert walks.shape == (2 * graph.n_nodes, 10)
        assert walks.min() >= 0 and walks.max() < graph.n_nodes

    def test_consecutive_nodes_are_adjacent(self):
        graph = GridGraph(make_grid())
        walks = generate_walks(graph, num_walks=1, walk_length=12,
                               rng=np.random.default_rng(1))
        for row in walks[:50]:
            adj = graph.are_adjacent(row[:-1], row[1:])
            assert adj.all(), f"non-adjacent step in walk {row}"

    def test_start_nodes_respected(self):
        graph = GridGraph(make_grid())
        starts = np.array([3, 7])
        walks = generate_walks(graph, num_walks=3, walk_length=5,
                               start_nodes=starts, rng=np.random.default_rng(2))
        assert walks.shape == (6, 5)
        assert set(walks[:, 0]) == {3, 7}

    def test_return_bias_small_p_returns_more(self):
        """p << 1 boosts immediate backtracking (2nd-order bias sanity)."""
        graph = GridGraph(make_grid(10, 10))
        returny = generate_walks(graph, num_walks=5, walk_length=20, p=0.05, q=1.0,
                                 rng=np.random.default_rng(3))
        wandery = generate_walks(graph, num_walks=5, walk_length=20, p=20.0, q=1.0,
                                 rng=np.random.default_rng(3))

        def return_rate(walks):
            return float((walks[:, 2:] == walks[:, :-2]).mean())

        assert return_rate(returny) > return_rate(wandery) * 2

    def test_parameter_validation(self):
        graph = GridGraph(make_grid())
        with pytest.raises(ValueError):
            generate_walks(graph, walk_length=1)
        with pytest.raises(ValueError):
            generate_walks(graph, p=0.0)
        with pytest.raises(ValueError):
            generate_walks(graph, q=-1.0)


class TestSkipGram:
    def test_build_pairs_window(self):
        walks = np.array([[0, 1, 2, 3]])
        pairs = build_training_pairs(walks, window=1)
        as_set = {tuple(p) for p in pairs.tolist()}
        assert as_set == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}

    def test_build_pairs_window_validation(self):
        with pytest.raises(ValueError):
            build_training_pairs(np.array([[0, 1]]), window=0)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        # Structured corpus: walks confined to one of two disjoint groups,
        # so co-occurrence is informative and the loss can actually drop.
        walks = np.concatenate([
            rng.integers(0, 5, size=(100, 8)),
            rng.integers(5, 10, size=(100, 8)),
        ])
        pairs = build_training_pairs(walks, window=2)
        model = SkipGramModel(10, 16, rng=rng)
        losses = model.train(pairs, epochs=4, lr=0.02, rng=rng)
        assert losses[-1] < losses[0]

    def test_cooccurring_nodes_become_similar(self):
        """Nodes that always appear together should embed nearby."""
        rng = np.random.default_rng(1)
        # Two disjoint cliques of a path: {0..4} and {5..9}.
        walks = np.concatenate([
            rng.integers(0, 5, size=(300, 10)),
            rng.integers(5, 10, size=(300, 10)),
        ])
        pairs = build_training_pairs(walks, window=3)
        model = SkipGramModel(10, 16, rng=rng)
        model.train(pairs, epochs=5, lr=0.05, rng=rng)
        emb = model.embeddings / np.linalg.norm(model.embeddings, axis=1, keepdims=True)
        sims = emb @ emb.T
        within = (sims[:5, :5].sum() - 5) / 20 + (sims[5:, 5:].sum() - 5) / 20
        across = sims[:5, 5:].mean()
        assert within / 2 > across

    def test_negative_count_validation(self):
        model = SkipGramModel(5, 4)
        with pytest.raises(ValueError):
            model.train(np.array([[0, 1]]), negatives=0)


class TestNode2Vec:
    def test_embedding_shape(self):
        emb = node2vec_embeddings(make_grid(4, 3), dim=8, num_walks=2,
                                  walk_length=8, epochs=1, seed=0)
        assert emb.shape == (12, 8)
        assert np.isfinite(emb).all()

    def test_adjacent_cells_embed_closer_than_distant(self):
        grid = Grid(0, 0, 120, 120, cell_size=10)  # 12x12
        emb = node2vec_embeddings(grid, dim=32, num_walks=4, walk_length=16,
                                  epochs=3, seed=1)
        emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)

        rng = np.random.default_rng(2)
        graph = GridGraph(grid)
        adjacent_sims, distant_sims = [], []
        for _ in range(200):
            a = rng.integers(0, grid.n_cells)
            nbrs = graph.neighbors_padded[a]
            nbrs = nbrs[nbrs != GridGraph.PAD]
            adjacent_sims.append(float(emb[a] @ emb[rng.choice(nbrs)]))
            b = rng.integers(0, grid.n_cells)
            ra, ca = divmod(int(a), grid.n_cols)
            rb, cb = divmod(int(b), grid.n_cols)
            if max(abs(ra - rb), abs(ca - cb)) >= 6:
                distant_sims.append(float(emb[a] @ emb[b]))
        assert np.mean(adjacent_sims) > np.mean(distant_sims) + 0.1

    def test_deterministic_given_seed(self):
        grid = make_grid(4, 4)
        a = node2vec_embeddings(grid, dim=8, num_walks=2, walk_length=6,
                                epochs=1, seed=42)
        b = node2vec_embeddings(grid, dim=8, num_walks=2, walk_length=6,
                                epochs=1, seed=42)
        np.testing.assert_allclose(a, b)
