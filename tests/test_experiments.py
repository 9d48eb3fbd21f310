import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsplus import _kernel, experiments
from ksetsplus.engine import RunConfig, run
from ksetsplus.errors import (
    ArityMismatch,
    CoordinateOutOfRange,
    IndexOutOfRange,
    InvalidProbability,
    KOutOfRange,
)
from ksetsplus.experiments import (
    EARTH_RADIUS_KM,
    GeoPoint,
    SbmParams,
    SignedGraph,
    accuracy_sweep,
    edge_accuracy,
    haversine_matrix,
    random_sparse_similarity,
    sbm_generate,
    similarity_from_signed,
    _similarity_from_signed_reference,
)
from ksetsplus.measure import Partition

from conftest import needs_cc


def one_shot_sbm_generate(params: SbmParams) -> SignedGraph:
    """The generator body before it drew in chunks: one rng.random call over
    np.triu_indices per block and one (half, half) cross matrix."""
    p_in, p_out = params.probabilities()
    half = params.n // 2
    rng = np.random.default_rng(params.seed)
    parts_i, parts_j, truth_parts = [], [], []
    iu, ju = np.triu_indices(half, k=1)
    for offset in (0, half):
        keep = rng.random(len(iu)) < p_in
        parts_i.append(iu[keep] + offset)
        parts_j.append(ju[keep] + offset)
        truth_parts.append(np.ones(int(keep.sum()), dtype=np.int8))
    cross = rng.random((half, half)) < p_out
    ci, cj = np.nonzero(cross)
    parts_i.append(ci)
    parts_j.append(cj + half)
    truth_parts.append(-np.ones(len(ci), dtype=np.int8))
    edge_i = np.concatenate(parts_i)
    edge_j = np.concatenate(parts_j)
    truth = np.concatenate(truth_parts)
    flips = rng.random(len(edge_i)) < params.p
    sign = np.where(flips, -truth, truth).astype(np.int8)
    block = np.repeat(np.arange(2, dtype=np.int8), half)
    present = np.zeros(params.n, dtype=bool)
    present[edge_i] = True
    present[edge_j] = True
    survivors = np.nonzero(present)[0]
    renumber = np.full(params.n, -1, dtype=np.int64)
    renumber[survivors] = np.arange(len(survivors))
    return SignedGraph(
        n=len(survivors),
        edge_i=renumber[edge_i],
        edge_j=renumber[edge_j],
        sign=sign,
        truth_sign=truth,
        block=block[survivors],
    )


GRAPH_ARRAYS = ("edge_i", "edge_j", "sign", "truth_sign", "block")


def signed_graph(n, edge_i, edge_j, sign) -> SignedGraph:
    sign = np.asarray(sign, dtype=np.int8)
    return SignedGraph(
        n=n,
        edge_i=np.asarray(edge_i, dtype=np.int64),
        edge_j=np.asarray(edge_j, dtype=np.int64),
        sign=sign,
        truth_sign=sign.copy(),
        block=np.zeros(n, dtype=np.int8),
    )


class TestSbmParams:
    def test_rates_solve_the_two_constraints(self):
        params = SbmParams(n=2000, c=10.0, diff=5.0, p=0.1, seed=0)
        p_in, p_out = params.probabilities()
        half = 1000
        assert (half - 1) * p_in + half * p_out == pytest.approx(10.0, rel=1e-12)
        assert 2000 * (p_in - p_out) == pytest.approx(5.0, rel=1e-12)

    def test_odd_n_rejected(self):
        with pytest.raises(InvalidProbability):
            SbmParams(n=5, c=1.0, diff=0.0, p=0.0, seed=0).probabilities()

    def test_crossover_out_of_range(self):
        with pytest.raises(InvalidProbability):
            SbmParams(n=100, c=5.0, diff=2.0, p=0.6, seed=0).probabilities()

    def test_rate_out_of_range(self):
        with pytest.raises(InvalidProbability):
            SbmParams(n=10, c=100.0, diff=0.0, p=0.1, seed=0).probabilities()


class TestSbmGenerate:
    def test_degenerate_rates_give_full_blocks(self):
        # c and diff chosen so the within rate is 1 and the cross rate 0.
        graph = sbm_generate(SbmParams(n=4, c=1.0, diff=4.0, p=0.0, seed=0))
        assert graph.n == 4
        edges = {(a, b) for a, b, _ in graph.edges()}
        assert edges == {(0, 1), (2, 3)}
        assert all(s == 1 for _, _, s in graph.edges())

    def test_deterministic_per_seed(self):
        params = SbmParams(n=200, c=8.0, diff=5.0, p=0.1, seed=42)
        a = sbm_generate(params)
        b = sbm_generate(params)
        assert np.array_equal(a.edge_i, b.edge_i)
        assert np.array_equal(a.sign, b.sign)
        assert np.array_equal(a.block, b.block)

    def test_edge_count_tracks_average_degree(self):
        n, c = 1000, 10.0
        counts = [
            sbm_generate(SbmParams(n=n, c=c, diff=5.0, p=0.0, seed=s)).n_edges
            for s in range(20)
        ]
        assert np.mean(counts) == pytest.approx(n * c / 2, rel=0.05)

    def test_half_flips_at_max_crossover(self):
        graph = sbm_generate(SbmParams(n=2000, c=10.0, diff=5.0, p=0.5, seed=3))
        flipped = np.mean(graph.sign != graph.truth_sign)
        assert abs(flipped - 0.5) < 0.02

    def test_truth_signs_follow_blocks(self):
        graph = sbm_generate(SbmParams(n=300, c=6.0, diff=5.0, p=0.2, seed=9))
        same_block = graph.block[graph.edge_i] == graph.block[graph.edge_j]
        assert np.array_equal(same_block, graph.truth_sign > 0)

    def test_isolated_nodes_removed(self):
        graph = sbm_generate(SbmParams(n=200, c=1.0, diff=1.0, p=0.0, seed=7))
        assert graph.n < 200
        degrees = np.zeros(graph.n, dtype=int)
        np.add.at(degrees, graph.edge_i, 1)
        np.add.at(degrees, graph.edge_j, 1)
        assert degrees.min() >= 1

    def test_no_self_loops_or_duplicates(self):
        graph = sbm_generate(SbmParams(n=400, c=12.0, diff=5.0, p=0.3, seed=5))
        assert np.all(graph.edge_i != graph.edge_j)
        pairs = {
            (min(a, b), max(a, b)) for a, b in zip(graph.edge_i, graph.edge_j)
        }
        assert len(pairs) == graph.n_edges

    # sha256 prefixes of edge_i, edge_j, sign, truth_sign and block as the
    # one-shot generator (one_shot_sbm_generate) drew them.
    PINS = {
        (4, 1.0, 4.0, 0.0, 0): "364b1f6e2dfe1f1b",
        (4, 1.5, 2.0, 0.3, 1): "0b1276d239e1b1e0",  # one node isolated
        (60, 20.0, 5.0, 0.3, 0): "0cd549f663de2c42",
        (200, 8.0, 5.0, 0.1, 2): "0f2f7c2eaeeb2a5f",  # one node isolated
        (200, 1.0, 1.0, 0.0, 7): "f2ef57a57b3abcde",
        (302, 12.0, 5.0, 0.2, 5): "e2c5874d670d443f",
        (1000, 6.0, 5.0, 0.5, 3): "aaf201ffd5254a1c",
        (2000, 10.0, 5.0, 0.1, 1): "ad7947f748ed958d",
    }

    def test_arrays_are_pinned(self, build_path):
        for (n, c, diff, p, seed), pin in self.PINS.items():
            graph = sbm_generate(SbmParams(n, c, diff=diff, p=p, seed=seed))
            digest = hashlib.sha256()
            for name in GRAPH_ARRAYS:
                digest.update(getattr(graph, name).tobytes())
            assert digest.hexdigest()[:16] == pin, (n, seed)
            assert graph.edge_i.dtype == graph.edge_j.dtype == np.int64

    # 7 divides neither count at n=60; 29 divides the 435 triangle draws,
    # and 435 is one chunk per block. The chunk is the reference path's;
    # the kernel path draws the same graph at any chunk.
    @pytest.mark.parametrize("chunk", [1, 7, 29, 435])
    @pytest.mark.parametrize(
        "n, c, diff, p, seed",
        [(4, 1.0, 4.0, 0.0, 0), (4, 1.5, 2.0, 0.3, 1), (60, 20.0, 5.0, 0.3, 0),
         (60, 3.0, 5.0, 0.1, 4)],
    )
    def test_any_chunk_size_draws_the_one_shot_graph(
        self, build_path, monkeypatch, chunk, n, c, diff, p, seed
    ):
        monkeypatch.setattr(experiments, "_DRAW_CHUNK", chunk)
        params = SbmParams(n, c, diff=diff, p=p, seed=seed)
        graph, expected = sbm_generate(params), one_shot_sbm_generate(params)
        assert graph.n == expected.n
        for name in GRAPH_ARRAYS:
            got, want = getattr(graph, name), getattr(expected, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


PROBS = [0.0, 1.0, 1e-300, 0.5, 2.0**-53, 1.0 - 2.0**-53]


def reference_draws(rng, counts, probs):
    buffer = np.empty(1000)  # any chunk draws the same stream
    return [experiments._kept_draws(rng, c, p, buffer) for c, p in zip(counts, probs)]


def assert_same_draws(seed, counts, probs):
    """_pair_draws from default_rng(seed) gives _kept_draws's positions, dtype
    and all, and leaves the generator in numpy's state."""
    rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = experiments._pair_draws(rng, counts, probs)
    expected = reference_draws(expected_rng, counts, probs)
    assert len(got) == len(counts)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes()
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    assert rng.random() == expected_rng.random()


class TestPairDraws:
    """The compiled ksets_draws against numpy's stream, _kept_draws."""

    @needs_cc
    @given(
        seed=st.integers(0, 2**128 - 1),
        segments=st.lists(
            st.tuples(
                st.integers(0, 9) | st.integers(10, 5000) | st.integers(1 << 18, 3 << 17),
                st.sampled_from(PROBS) | st.floats(0.0, 1.0),
            ),
            max_size=5,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_draws_numpy_stream(self, seed, segments):
        assert_same_draws(seed, [c for c, _ in segments], [p for _, p in segments])

    @needs_cc
    def test_signed_benchmark_stream(self):
        p_in, p_out = SbmParams(2000, 10.0, diff=5.0, p=0.1, seed=0).probabilities()
        assert_same_draws(1, [499_500, 499_500, 1_000_000], [p_in, p_in, p_out])

    @needs_cc
    def test_probabilities_at_the_draws(self):
        """Draw s of the stream alone in segment s, at a probability of the
        double below it, equal to it or just above it: only the last keeps
        it, which the integer test must tell apart from the others."""
        draws = np.random.default_rng(11).random(60)
        near = [np.nextafter(draws, 0.0), draws, np.nextafter(draws, 2.0)]
        probs = np.choose(np.arange(60) % 3, near).tolist()
        assert_same_draws(11, [1] * 60, probs)

    @staticmethod
    def spy(monkeypatch):
        """The kernel's ksets_draws buffer sizes and returns, as calls make
        them."""
        library, sizes, returns = _kernel.load(), [], []
        routine = library.ksets_draws

        def call(*args):
            sizes.append(len(args[-1]))
            returns.append(routine(*args))
            return returns[-1]

        monkeypatch.setattr(library, "ksets_draws", call)
        return sizes, returns

    @needs_cc
    def test_kept_buffer_is_sized_by_the_kept_draws(self, monkeypatch):
        """A p=0 segment of 1M draws keeps none and a p=1 one of 20k keeps
        all: the buffer holds the 20k and a margin, not the draws."""
        sizes, returns = self.spy(monkeypatch)
        assert_same_draws(4, [1_000_000, 20_000], [0.0, 1.0])
        assert returns == [20_000] and 20_000 <= sizes[0] < 1.1 * 20_000

    @needs_cc
    def test_overflow_redraws_on_numpy(self, monkeypatch):
        monkeypatch.setattr(experiments, "_kept_capacity", lambda mean: 1)
        _, returns = self.spy(monkeypatch)
        assert_same_draws(3, [40, 0, 90], [0.5, 0.3, 1.0])
        assert returns == [-1]

    @needs_cc
    @pytest.mark.parametrize("room, kept", [(0, 13), (-1, -1)])
    def test_exactly_full_slots_are_kept(self, monkeypatch, room, kept):
        monkeypatch.setattr(experiments, "_kept_capacity", lambda mean: int(mean) + room)
        _, returns = self.spy(monkeypatch)
        assert_same_draws(3, [4, 0, 9], [1.0, 0.3, 1.0])
        assert returns == [kept]

    def test_refused_or_missing_kernel_draws_on_numpy(self, monkeypatch):
        class Refusing:  # as a build without a 128-bit integer type answers
            def ksets_draws(self, *args):
                return -1

        for library in (Refusing(), None):
            monkeypatch.setattr(_kernel, "load", lambda: library)
            assert_same_draws(5, [7, 30, 0, 1000], [0.5, 1e-300, 1.0, 0.25])

    def test_other_bit_generators_draw_on_numpy(self):
        rng = np.random.Generator(np.random.Philox(9))
        expected_rng = np.random.Generator(np.random.Philox(9))
        got = experiments._pair_draws(rng, [50, 70], [0.5, 0.1])
        for a, b in zip(got, reference_draws(expected_rng, [50, 70], [0.5, 0.1])):
            assert a.tobytes() == b.tobytes()
        assert rng.random() == expected_rng.random()


class TestSimilarityFromSigned:
    def _graph(self, n, edges):
        table = np.array(edges, dtype=np.int64).reshape(-1, 3)
        return signed_graph(n, table[:, 0], table[:, 1], table[:, 2])

    def test_single_edge(self):
        g = similarity_from_signed(self._graph(2, [(0, 1, 1)]))
        assert np.allclose(g.to_dense(), [[0.5, 1.0], [1.0, 0.5]])

    def test_empty_graph(self):
        g = similarity_from_signed(self._graph(3, []))
        assert g.m == 0

    def test_positive_triangle(self):
        g = similarity_from_signed(
            self._graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        )
        dense = g.to_dense()
        assert np.allclose(np.diag(dense), 1.0)
        assert dense[0, 1] == dense[0, 2] == dense[1, 2] == 1.5

    def test_exactly_symmetric(self):
        graph = sbm_generate(SbmParams(n=300, c=8.0, diff=5.0, p=0.2, seed=21))
        g = similarity_from_signed(graph)
        g.check_symmetry()

    def test_cancelling_walk_drops_entry(self):
        # Negative direct edge plus two positive two-step walks cancel:
        # -1 + 0.5 * 2 = 0, so the pair is dropped from storage.
        g = similarity_from_signed(
            self._graph(4, [(0, 1, -1), (0, 2, 1), (2, 1, 1), (0, 3, 1), (3, 1, 1)])
        )
        assert g.value(0, 1) == 0.0

    # sha256 prefixes of indptr, indices, data and diag as the build ended
    # in its own searchsorted over the keys, before measure._from_keys.
    PINS = {
        (0, 200, 8.0, 0.1): "fe9c50d9d87d1e09",
        (0, 60, 20.0, 0.3): "b0ae3df851ded241",
        (1, 200, 8.0, 0.1): "87375812fd8e723d",
        (1, 60, 20.0, 0.3): "78cfbbc44f012560",
        (2, 200, 8.0, 0.1): "d7823f0d55b0f65a",  # one node isolated
        (2, 60, 20.0, 0.3): "72dfe1ec155bf02d",
        (3, 200, 8.0, 0.1): "ee361212d34d1e7c",
        (3, 60, 20.0, 0.3): "090f7020e423c73b",
    }

    def test_csr_bytes_are_pinned(self):
        self.check_pins()

    def test_reference_csr_bytes_are_pinned(self, monkeypatch):
        monkeypatch.setattr(_kernel, "load", lambda: None)
        self.check_pins()

    def check_pins(self):
        for (seed, n, c, p), pin in self.PINS.items():
            graph = sbm_generate(SbmParams(n, c, diff=5.0, p=p, seed=seed))
            g = similarity_from_signed(graph)
            digest = hashlib.sha256()
            for array in (g.indptr, g.indices, g.data, g.diag):
                digest.update(array.tobytes())
            assert digest.hexdigest()[:16] == pin, (seed, n)
            # The arrays own exactly m entries.
            assert g.indices.base is None and g.data.base is None

    @pytest.mark.parametrize(
        "edge_i, edge_j, bad",
        [([0, -1], [1, 2], "edge 1 (-1, 2)"), ([0, 1, 2], [3, 1, 0], "edge 0 (0, 3)")],
    )
    def test_endpoint_outside_the_points_is_named(
        self, build_path, edge_i, edge_j, bad
    ):
        graph = signed_graph(3, edge_i, edge_j, [1] * len(edge_i))
        with pytest.raises(IndexOutOfRange) as info:
            similarity_from_signed(graph)
        assert str(info.value) == f"{bad} has an endpoint outside [0, 3)"

    @pytest.mark.parametrize(
        "edge_i, edge_j, sign",
        [([0, 1], [1], [1, 1]), ([0], [1], [1, -1]), ([0, 1], [1, 2], [1])],
    )
    def test_edge_arrays_of_different_lengths_are_rejected(
        self, build_path, edge_i, edge_j, sign
    ):
        graph = signed_graph(3, edge_i, edge_j, sign)
        with pytest.raises(ArityMismatch, match="edge arrays differ in length"):
            similarity_from_signed(graph)

    def test_no_points_is_rejected(self, build_path):
        with pytest.raises(ArityMismatch, match="at least one point"):
            similarity_from_signed(signed_graph(0, [], [], []))

    def test_allocation_failure_is_a_memory_error(self, monkeypatch):
        class Library:
            def ksets_two_step(self, *args):
                return -1

        monkeypatch.setattr(_kernel, "load", Library)
        with pytest.raises(MemoryError, match="two-step scratch"):
            similarity_from_signed(signed_graph(2, [0], [1], [1]))

    # Small point counts, so repeated edges, self loops and isolated nodes
    # are common; int8 signs of any value, 0 included.
    @needs_cc
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1),
                        st.integers(0, n - 1),
                        st.integers(-128, 127),
                    ),
                    max_size=40,
                ),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_the_reference_bit_for_bit(self, case):
        n, edges = case
        self.check_kernel(self._graph(n, edges))

    def check_kernel(self, graph):
        assert _kernel.load() is not None
        g = similarity_from_signed(graph)
        expected = _similarity_from_signed_reference(
            graph.n,
            graph.edge_i,
            graph.edge_j,
            graph.sign.astype(np.float64),
        )
        for name in ("indptr", "indices", "data", "diag"):
            assert getattr(g, name).tobytes() == getattr(expected, name).tobytes()
        return g

    # The kernel orders a row of d touched columns by a bitmap scan when
    # d > 16 and d * 1024 >= n, and by a sort otherwise: insertion sort up
    # to 16 columns, heapsort above. Every row of a star with k leaves
    # touches the hub and all leaves, d = k + 1, so n = 1024 * (k + 1) puts
    # each row exactly at the switch and one more point just below it. The
    # leaves are listed in a stride-7 order, so every row is touched out of
    # order. A hub whose leaves each have a +1 and a -1 edge cancels every
    # term, so each of its rows is touched and comes out empty.
    @staticmethod
    def _star(hub, leaves, cancel=False, stride=7):
        edges = []
        for offset in range(leaves):
            leaf = hub + 1 + offset * stride % leaves
            if cancel:
                edges += [(hub, leaf, 1), (leaf, hub, -1)]
            else:
                edges.append((hub, leaf, 1 if offset % 3 else -1))
        return edges

    @needs_cc
    @pytest.mark.parametrize(
        "n, leaves, cancel",
        [
            (40, 15, False),  # d = 16: insertion sort, even for n < 1024 d
            (1088, 16, False),  # d = 17 far above the switch: bitmap
            (17408, 16, False),  # d = 17 at the switch: bitmap
            (17409, 16, False),  # just below: heapsort of 17
            (50000, 40, False),  # far below: heapsort of 41
            (40, 15, True),
            (17408, 16, True),
            (17409, 16, True),
        ],
    )
    def test_kernel_matches_the_reference_at_the_ordering_switch(
        self, n, leaves, cancel
    ):
        # A cancelling star next to an ordinary one, so that empty rows sit
        # between rows that keep their entries.
        edges = self._star(0, leaves, cancel) + self._star(n - leaves - 1, leaves)
        g = self.check_kernel(self._graph(n, edges))
        stored = np.diff(g.indptr)
        assert stored.max() == leaves + 1
        if cancel:
            assert stored[: leaves + 1].sum() == 0

    # Leaves listed in increasing order reach the sort in nearly increasing
    # order: a heapsort that heapifies too little misplaces the largest.
    @needs_cc
    @pytest.mark.parametrize("n, leaves", [(40, 15), (17409, 16), (50000, 40)])
    def test_kernel_matches_the_reference_on_stars_in_order(self, n, leaves):
        edges = self._star(0, leaves, stride=1) + self._star(n - leaves - 1, leaves)
        self.check_kernel(self._graph(n, edges))

    # A hub at point 0 with 10 to 30 leaves among 999, repeated and
    # cancelling edges allowed, on n near 1024 times its row length, plus a
    # few other edges: rows fall on both sides of the switch.
    @needs_cc
    @given(
        n=st.integers(10000, 34000),
        leaves=st.lists(
            st.tuples(st.integers(1, 999), st.integers(-2, 2)), min_size=10, max_size=30
        ),
        extra=st.lists(
            st.tuples(st.integers(0, 999), st.integers(0, 999), st.integers(-2, 2)),
            max_size=10,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_the_reference_on_hub_graphs(self, n, leaves, extra):
        edges = [(0, leaf, sign) for leaf, sign in leaves] + extra
        self.check_kernel(self._graph(n, edges))


class TestEdgeAccuracy:
    def test_ground_truth_partition_is_perfect(self):
        graph = sbm_generate(SbmParams(n=200, c=8.0, diff=5.0, p=0.3, seed=2))
        part = Partition.from_assign(list(graph.block), k=2)
        assert edge_accuracy(graph, part) == 1.0

    def test_label_swap_invariance(self):
        graph = sbm_generate(SbmParams(n=200, c=8.0, diff=5.0, p=0.1, seed=4))
        flipped = Partition.from_assign([1 - b for b in graph.block], k=2)
        assert edge_accuracy(graph, flipped) == 1.0

    def test_random_partition_is_coin_flip(self):
        graph = sbm_generate(SbmParams(n=2000, c=10.0, diff=5.0, p=0.0, seed=6))
        rng = np.random.default_rng(0)
        part = Partition.from_assign(
            [int(v) for v in rng.integers(0, 2, size=graph.n)], k=2
        )
        assert abs(edge_accuracy(graph, part) - 0.5) < 0.05

    def test_observed_reference_without_flips_matches_truth(self):
        graph = sbm_generate(SbmParams(n=300, c=8.0, diff=5.0, p=0.0, seed=8))
        part = Partition.from_assign(list(graph.block), k=2)
        assert edge_accuracy(graph, part, reference="observed") == 1.0

    def test_size_mismatch(self):
        graph = sbm_generate(SbmParams(n=100, c=6.0, diff=5.0, p=0.0, seed=1))
        with pytest.raises(ArityMismatch):
            edge_accuracy(graph, Partition.from_assign([0, 1], k=2))

    def test_needs_two_sets(self):
        graph = sbm_generate(SbmParams(n=100, c=6.0, diff=5.0, p=0.0, seed=1))
        part = Partition.from_assign([i % 3 for i in range(graph.n)], k=3)
        with pytest.raises(ArityMismatch):
            edge_accuracy(graph, part)

    def test_unknown_reference_rejected(self):
        graph = sbm_generate(SbmParams(n=100, c=6.0, diff=5.0, p=0.0, seed=1))
        part = Partition.from_assign(list(graph.block), k=2)
        with pytest.raises(ValueError) as info:
            edge_accuracy(graph, part, reference="sign")
        assert type(info.value) is ValueError
        assert str(info.value) == "unknown reference 'sign'"

    def test_graph_without_edges_is_perfect(self):
        none = np.zeros(0, dtype=np.int64)
        signs = np.zeros(0, dtype=np.int8)
        graph = SignedGraph(2, none, none, signs, signs, np.array([0, 1], dtype=np.int8))
        assert edge_accuracy(graph, Partition.from_assign([0, 1], k=2)) == 1.0


class TestHaversine:
    def test_identical_points(self):
        g = haversine_matrix([GeoPoint(10.0, 20.0), GeoPoint(10.0, 20.0)])
        assert g.value(0, 1) == 0.0

    def test_equatorial_antipodes(self):
        g = haversine_matrix([GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)])
        assert abs(g.value(0, 1) - math.pi * EARTH_RADIUS_KM) < 0.1

    def test_pole_to_pole(self):
        g = haversine_matrix([GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0)])
        assert abs(g.value(0, 1) - math.pi * EARTH_RADIUS_KM) < 0.1

    def test_output_is_a_distance(self):
        rng = np.random.default_rng(12)
        pts = [
            GeoPoint(float(lat), float(lon))
            for lat, lon in zip(
                rng.uniform(-90, 90, size=12), rng.uniform(-180, 180, size=12)
            )
        ]
        g = haversine_matrix(pts)
        assert g.kind == "distance"
        g.check_symmetry()

    def test_coordinate_range(self):
        with pytest.raises(CoordinateOutOfRange):
            GeoPoint(91.0, 0.0)
        with pytest.raises(CoordinateOutOfRange):
            GeoPoint(0.0, 181.0)


class TestAccuracySweep:
    def test_shape_and_determinism(self):
        kwargs = dict(
            n=120, c_list=[8.0], p_grid=[0.0, 0.1], graphs_per_point=3, seed=5
        )
        rows_a = accuracy_sweep(**kwargs)
        rows_b = accuracy_sweep(**kwargs)
        assert [(r.c, r.p) for r in rows_a] == [(8.0, 0.0), (8.0, 0.1)]
        assert [r.mean_accuracy for r in rows_a] == [
            r.mean_accuracy for r in rows_b
        ]
        assert all(r.graphs == 3 for r in rows_a)

    def test_no_graphs_per_point_rejected(self):
        with pytest.raises(KOutOfRange):
            accuracy_sweep(n=120, c_list=[8.0], p_grid=[0.1], graphs_per_point=0, seed=5)

    def test_one_graph_per_point_has_zero_half_width(self):
        rows = accuracy_sweep(
            n=60, c_list=[8.0], p_grid=[0.0, 0.2], graphs_per_point=1, seed=2
        )
        assert [(r.ci95_halfwidth, r.graphs) for r in rows] == [(0.0, 1), (0.0, 1)]

    def test_noiseless_small_instance_is_nearly_perfect(self):
        rows = accuracy_sweep(
            n=200,
            c_list=[10.0],
            p_grid=[0.0],
            graphs_per_point=3,
            seed=1,
            restarts=3,
        )
        assert rows[0].mean_accuracy >= 0.99

    def test_accuracy_degrades_with_crossover_on_average(self):
        rows = accuracy_sweep(
            n=300,
            c_list=[10.0],
            p_grid=[0.0, 0.1, 0.2],
            graphs_per_point=5,
            seed=3,
            restarts=3,
        )
        accs = [r.mean_accuracy for r in rows]
        assert accs[0] >= accs[1] - 0.03
        assert accs[1] >= accs[2] - 0.03


class TestRandomSparseSimilarity:
    def test_entry_budget(self):
        g = random_sparse_similarity(500, 10.0, seed=0)
        assert g.m == pytest.approx(500 * 10, rel=0.01)

    def test_deterministic(self):
        a = random_sparse_similarity(100, 6.0, seed=9)
        b = random_sparse_similarity(100, 6.0, seed=9)
        assert a.to_dense().tolist() == b.to_dense().tolist()

    def test_symmetric(self):
        g = random_sparse_similarity(80, 5.0, seed=2, diagonal_fraction=0.3)
        g.check_symmetry()

    # sha256 prefixes of indptr, indices, data and diag as the COO path
    # (sort by row * n + col) built them before build_from_triples did.
    PINS = {
        (0, 0.0): "cab8bbf3d0047557",
        (0, 0.3): "182ef94cd358d8ca",
        (1, 0.0): "0bab28ace76b2918",
        (1, 0.3): "ff1f580a2fdd7590",
        (2, 0.0): "d14c647f480af2f2",
        (2, 0.3): "889791ae22f93e53",
        (3, 0.0): "be1040bd085ee05a",
        (3, 0.3): "1cdc3ebd877cddbc",
        (4, 0.0): "0bafc2cc130baccd",
        (4, 0.3): "cb688a1b25c24f1f",
    }

    @pytest.mark.parametrize("kernel", [True, False])
    def test_csr_bytes_are_pinned(self, kernel, monkeypatch):
        if not kernel:
            monkeypatch.setattr(_kernel, "load", lambda: None)
        for (seed, fraction), pin in self.PINS.items():
            g = random_sparse_similarity(60, 5.0, seed, diagonal_fraction=fraction)
            digest = hashlib.sha256()
            for array in (g.indptr, g.indices, g.data, g.diag):
                digest.update(array.tobytes())
            assert digest.hexdigest()[:16] == pin, (seed, fraction)
