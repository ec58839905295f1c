"""Graph core: CSR construction, loaders, subgraphs, rank-table persistence."""

import numpy as np
import pytest
from oracles import build_subgraph_dict

from ags import graph as G


def fuzz_graph(rng, n_max=30, p=0.1, directed=False):
    n = int(rng.integers(1, n_max + 1))
    mask = rng.random((n, n)) < p
    src, dst = np.nonzero(mask)
    return G.from_edges(n, src, dst, directed=directed)


class TestFromEdges:
    def test_symmetrization(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0\t1\n1\t2\n")
        g = G.load_edge_list(str(p), directed=False)
        assert g.n == 3 and g.m == 4
        assert list(g.neighbors(1)) == [0, 2]

    def test_self_loop_single_entry(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 0\n")
        g = G.load_edge_list(str(p))
        assert g.n == 1 and g.m == 1
        assert list(g.neighbors(0)) == [0]

    def test_duplicate_edges_merge(self):
        g = G.from_edges(3, [0, 0, 2, 0], [1, 1, 0, 1], directed=True)
        assert g.m == 2
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(2)) == [0]
        u = G.from_edges(2, [0, 1, 0], [1, 0, 1], directed=False)
        assert u.m == 2
        assert list(u.neighbors(0)) == [1] and list(u.neighbors(1)) == [0]

    def test_rows_sorted_dedup(self):
        g = G.from_edges(4, [2, 2, 2], [3, 1, 3], directed=True)
        assert list(g.neighbors(2)) == [1, 3]

    def test_isolated_nodes_allowed(self):
        g = G.from_edges(5, [0], [1])
        assert g.degree(4) == 0
        g.validate()

    def test_csr_validity_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            g = fuzz_graph(rng, directed=bool(rng.integers(2)))
            g.validate()

    def test_symmetrize_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = fuzz_graph(rng, directed=True)
            e = g.edge_array()
            u1 = G.from_edges(g.n, e[:, 0], e[:, 1], directed=False)
            e1 = u1.edge_array()
            u2 = G.from_edges(g.n, e1[:, 0], e1[:, 1], directed=False)
            assert np.array_equal(u1.offsets, u2.offsets)
            assert np.array_equal(u1.targets, u2.targets)


class TestLoaders:
    def test_header_and_comments(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# n=5\n# comment\n0 1\n\n3 4\n")
        g = G.load_edge_list(str(p))
        assert g.n == 5

    def test_id_exceeds_declared_n(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# n=2\n0 3\n")
        with pytest.raises(ValueError, match="line 2"):
            G.load_edge_list(str(p))

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\nnope\n")
        with pytest.raises(ValueError, match="line 2"):
            G.load_edge_list(str(p))

    def test_negative_weight_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1 -2.0\n")
        with pytest.raises(ValueError, match="weight"):
            G.load_edge_list(str(p))

    @pytest.mark.parametrize("w", ["abc", "nan", "inf"])
    def test_bad_weight_rejected_with_line(self, tmp_path, w):
        p = tmp_path / "g.edges"
        p.write_text(f"0 1 1.5\n1 2 {w}\n")
        with pytest.raises(ValueError, match="line 2.*weight"):
            G.load_edge_list(str(p))

    def test_weight_column_ignored(self, tmp_path):
        p = tmp_path / "w.edges"
        p.write_text("0 1 0.5\n1 2 7\n0 1 3.0\n")
        q = tmp_path / "plain.edges"
        q.write_text("0 1\n1 2\n")
        g, h = G.load_edge_list(str(p)), G.load_edge_list(str(q))
        assert g.n == h.n == 3
        assert np.array_equal(g.offsets, h.offsets)
        assert np.array_equal(g.targets, h.targets)

    def test_features_roundtrip(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,0.0\n0.0,1.0\n")
        X = G.load_features(str(p))
        assert X.shape == (2, 2)

    def test_features_empty(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="no rows"):
            G.load_features(str(p))

    def test_features_ragged(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row length"):
            G.load_features(str(p))

    def test_features_non_finite(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            G.load_features(str(p))

    def test_labels(self, tmp_path):
        p = tmp_path / "y.txt"
        p.write_text("0\n2\n1\n")
        y = G.load_labels(str(p))
        assert G.num_classes(y) == 3

    def test_labels_negative(self, tmp_path):
        p = tmp_path / "y.txt"
        p.write_text("0\n-1\n")
        with pytest.raises(ValueError, match="out of range"):
            G.load_labels(str(p))


class TestSubgraph:
    def test_single_sampled_edge(self):
        g = G.from_edges(3, [0, 1], [1, 2])
        sg = G.build_subgraph(g, seeds=[0], edges=[(0, 1)])
        assert sg.n == 2
        assert sg.graph.m == 1
        assert list(sg.parent_ids) == [0, 1]
        assert list(sg.seeds_local()) == [0]

    def test_empty_seed_set(self):
        g = G.from_edges(3, [0], [1])
        sg = G.build_subgraph(g, seeds=[], edges=[])
        assert sg.n == 0

    def test_out_of_range_rejected(self):
        g = G.from_edges(2, [0], [1])
        with pytest.raises(ValueError, match="out of range"):
            G.build_subgraph(g, seeds=[5], edges=[])

    def test_layers_localized(self):
        g = G.from_edges(4, [0, 1, 2], [1, 2, 3])
        sg = G.build_subgraph(
            g, seeds=[0], edges=[(0, 1), (1, 2)], layers=[[(0, 1)], [(1, 2)]]
        )
        assert len(sg.layers) == 2
        assert sg.layers[0].tolist() == [[0, 1]]
        assert sg.layers[1].tolist() == [[1, 2]]

    def test_matches_dict_remap_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            g = G.from_edges(n, [], [], directed=True)
            seeds = rng.integers(0, n, size=int(rng.integers(0, 6)))
            edges = rng.integers(0, n, size=(int(rng.integers(0, 60)), 2))
            cut = int(rng.integers(0, edges.shape[0] + 1))
            layers = [edges[:cut], edges[cut:]] if trial % 2 else None
            got = G.build_subgraph(g, seeds, edges, layers=layers)
            ids, local, mask, local_layers = build_subgraph_dict(
                g, seeds, edges, layers
            )
            assert np.array_equal(got.parent_ids, ids)
            assert np.array_equal(got.graph.offsets, local.offsets)
            assert np.array_equal(got.graph.targets, local.targets)
            assert got.graph.n == local.n and got.graph.directed
            assert np.array_equal(got.seed_mask, mask)
            if layers is None:
                assert got.layers is None
            else:
                assert len(got.layers) == len(local_layers)
                for a, b in zip(got.layers, local_layers):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_layer_endpoint_outside_node_set_rejected(self):
        g = G.from_edges(4, [0, 1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="not a subgraph node"):
            G.build_subgraph(g, [0], [(0, 1)], layers=[[(2, 3)]])
        with pytest.raises(ValueError, match="out of range"):
            G.build_subgraph(g, [0], [(0, 1)], layers=[[(0, 9)]])


def toy_table(n=4):
    # Two nodes with neighbors, two isolated rows.
    offsets = [0, 2, 5, 5, 5]
    ranked = [1, 2, 0, 2, 3]
    probs = [0.75, 0.25, 0.5, 0.25, 0.25]
    return G.make_rank_table(
        "similar", "step", (0.2, 0.2, 4.0, 2.0, 1.0, 0.0), offsets, ranked, probs
    )


class TestRankTablePersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rt = toy_table()
        path = str(tmp_path / "t.agsr")
        G.save_rank_table(rt, path)
        rt2 = G.load_rank_table(path)
        assert rt2.mode == rt.mode and rt2.pmf_kind == rt.pmf_kind
        assert rt2.pmf_params == rt.pmf_params
        assert np.array_equal(rt2.offsets, rt.offsets)
        assert np.array_equal(rt2.ranked_ids, rt.ranked_ids)
        assert rt2.probs.tobytes() == rt.probs.tobytes()

    def test_file_size_formula(self, tmp_path):
        rt = toy_table()
        path = tmp_path / "t.agsr"
        G.save_rank_table(rt, str(path))
        expect = (
            G.RANK_TABLE_HEADER_BYTES
            + (rt.n + 1) * 8
            + rt.m * 16
            + G.RANK_TABLE_TRAILER_BYTES
        )
        assert path.stat().st_size == expect

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "t.agsr"
        G.save_rank_table(toy_table(), str(path))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum|magic"):
            G.load_rank_table(str(path))

    def test_corrupt_payload_checksum(self, tmp_path):
        path = tmp_path / "t.agsr"
        G.save_rank_table(toy_table(), str(path))
        blob = bytearray(path.read_bytes())
        blob[-12] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            G.load_rank_table(str(path))

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.agsr"
        G.save_rank_table(toy_table(), str(path))
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError, match="truncated"):
            G.load_rank_table(str(path))

    def test_version_mismatch(self, tmp_path):
        import struct
        import zlib

        path = tmp_path / "t.agsr"
        G.save_rank_table(toy_table(), str(path))
        blob = bytearray(path.read_bytes())[:-4]
        struct.pack_into("<I", blob, 4, 99)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            G.load_rank_table(str(path))

    @pytest.mark.parametrize(
        "part,index,value,match",
        [
            ("offsets", 0, 1, "offsets"),  # does not start at 0
            ("offsets", 2, 1, "offsets"),  # decreases
            ("offsets", 4, 4, "offsets"),  # ends short of m
            ("ranked", 3, 4, "out of range"),  # id == n
            ("ranked", 0, 2**63, "out of range"),  # negative once signed
            ("probs", 1, float("nan"), "finite"),
            ("probs", 1, float("inf"), "finite"),
            ("probs", 2, 0.0, "positive"),
            ("probs", 2, -0.5, "positive"),
            ("probs", 4, 0.5, "sum to 1"),  # row 1 sums to 1.25
        ],
    )
    def test_structure_checked_behind_a_valid_checksum(
        self, tmp_path, part, index, value, match
    ):
        import struct
        import zlib

        rt = toy_table()
        path = tmp_path / "t.agsr"
        G.save_rank_table(rt, str(path))
        blob = bytearray(path.read_bytes())[:-4]
        start = {
            "offsets": G.RANK_TABLE_HEADER_BYTES,
            "ranked": G.RANK_TABLE_HEADER_BYTES + (rt.n + 1) * 8,
            "probs": G.RANK_TABLE_HEADER_BYTES + (rt.n + 1) * 8 + rt.m * 8,
        }[part]
        fmt = "<d" if part == "probs" else "<Q"
        struct.pack_into(fmt, blob, start + 8 * index, value)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=match):
            G.load_rank_table(str(path))

    def test_row_sum_tolerance(self, tmp_path):
        rt = G.make_rank_table(
            "similar", "step", (0.2, 0.2, 4.0, 2.0, 1.0, 0.0),
            [0, 2, 3], [1, 0, 0], [0.75, 0.25 + 5e-10, 1.0],
        )
        path = str(tmp_path / "t.agsr")
        G.save_rank_table(rt, path)
        assert G.load_rank_table(path).probs.tobytes() == rt.probs.tobytes()

    def test_validate_against_graph(self):
        g = G.from_edges(4, [0, 0, 1], [1, 2, 2], directed=True)
        # Row 0 must be a permutation of {1, 2}.
        rt = G.make_rank_table(
            "uniform",
            "uniform",
            (0,) * 6,
            [0, 2, 3, 3, 3],
            [2, 1, 2],
            [0.5, 0.5, 1.0],
        )
        rt.validate(g)
        bad = G.make_rank_table(
            "uniform",
            "uniform",
            (0,) * 6,
            [0, 2, 3, 3, 3],
            [3, 1, 2],
            [0.5, 0.5, 1.0],
        )
        with pytest.raises(ValueError, match="permutation"):
            bad.validate(g)


class TestRankTableCdf:
    def test_rows_end_at_row_plus_one(self):
        rt = toy_table()
        assert rt.cdf.tolist() == [0.75, 1.0, 1.5, 1.75, 2.0]
        assert not rt.cdf.flags.writeable

    def test_row_mass_short_of_one_stays_in_row(self):
        # rows summing to 1 - 1e-9 end exactly at u + 1 after normalising
        base = toy_table()
        rt = G.make_rank_table(
            base.mode, base.pmf_kind, base.pmf_params, base.offsets,
            base.ranked_ids, base.probs * (1.0 - 1e-9),
        )
        ends = rt.offsets[1:][np.diff(rt.offsets) > 0] - 1
        assert rt.cdf[ends].tolist() == [1.0, 2.0]
        assert np.all(np.diff(rt.cdf) >= 0.0)

    def test_not_saved(self, tmp_path):
        rt = toy_table()
        path = str(tmp_path / "t.agsr")
        G.save_rank_table(rt, path)
        size = (tmp_path / "t.agsr").stat().st_size
        assert size == G.RANK_TABLE_HEADER_BYTES + (rt.n + 1) * 8 + rt.m * 16 + 4
        assert np.array_equal(G.load_rank_table(path).cdf, rt.cdf)

    @pytest.mark.parametrize(
        "offsets, probs",
        [
            ([0, 2, 5, 5, 5], [0.0, 0.0, 0.5, 0.25, 0.25]),  # zero-mass row
            ([0, 2, 5, 5, 5], [np.nan, 1.0, 0.5, np.inf, -0.25]),
            ([0, 4, 2, 5, 5], [0.75, 0.25, 0.5, 0.25, 0.25]),  # decreasing
            ([3, 9, 9, 9, 2], [0.75, 0.25, 0.5, 0.25, 0.25]),  # past the end
        ],
    )
    def test_invalid_tables_construct_then_fail_validate(self, offsets, probs):
        rt = G.make_rank_table(
            "similar", "step", (0.0,) * 6, offsets, [1, 2, 0, 2, 3], probs
        )
        assert rt.cdf.shape == (5,)
        with pytest.raises(ValueError):
            rt.validate()
