"""The benchmark's references and generators on hand-worked examples.

    python3 -m pytest perfbench
"""

import numpy as np
import pytest

import inputs
import reference as ref


def test_homophily_on_a_labelled_path():
    # path 0-1-2-3 labelled 0,0,1,1 plus isolated node 4: edges 01 and 23
    # match, 12 does not; local shares are 1, 1/2, 1/2, 1
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    y = np.array([0, 0, 1, 1, 0])
    assert ref.edge_homophily(edges, y) == pytest.approx(2 / 3, abs=1e-15)
    assert ref.node_homophily(5, edges, y) == pytest.approx(0.75, abs=1e-15)


def test_cosine_and_its_order_break_ties_by_id():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    got = ref.cosine(x, np.array([0, 0, 3]), np.array([1, 2, 0]))
    assert got == pytest.approx([0.0, 1 / np.sqrt(2), 0.0], abs=1e-15)
    rows, ids = np.array([0, 0, 0, 1, 1]), np.array([5, 3, 9, 7, 2])
    order = ref.similarity_order(rows, ids, np.array([0.5, 0.9, 0.5, 0.1, 0.1]))
    assert ids[order].tolist() == [3, 5, 9, 2, 7]


def test_neg_sq_distance():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert ref.neg_sq_distance(x, np.array([0]), np.array([1])).tolist() == [-25.0]


def test_step_pmf_tiers():
    # d=10, k=(0.2, 0.2): weights 4,4,2,2 and six 1s, total 18
    assert ref.step_pmf(10, 0.2, 0.2, (4.0, 2.0, 1.0)) == pytest.approx(
        np.array([4, 4, 2, 2, 1, 1, 1, 1, 1, 1]) / 18.0, abs=1e-15
    )
    # d=20, k=(0.15, 0.45): tiers of 3, 9 and 8 -> 24 + 27 + 8 = 59
    p = ref.step_pmf(20, 0.15, 0.45, (8.0, 3.0, 1.0))
    assert p == pytest.approx(np.array([8] * 3 + [3] * 9 + [1] * 8) / 59.0, abs=1e-15)
    # 0.29 * 100 is 28.999999999999996 in floats; the top tier still has 29
    assert np.count_nonzero(ref.step_pmf(100, 0.29, 0.0, (4.0, 2.0, 1.0)) > 0.01) == 29
    assert ref.step_pmf(1, 0.2, 0.2, (4.0, 2.0, 1.0)).tolist() == [1.0]


def test_kernels():
    assert ref.cosine_kernel(np.array([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(
        np.array([[1.0, 0.5], [0.5, 1.0]]), abs=1e-15
    )
    # points 0, 1, 3 on a line: D = [[0,1,9],[1,0,4],[9,4,0]], K = 9 - D
    k = ref.neg_euclidean_kernel(np.array([[0.0], [1.0], [3.0]]))
    assert k.tolist() == [[9.0, 8.0, 0.0], [8.0, 9.0, 5.0], [0.0, 5.0, 9.0]]


FL_KERNEL = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])


def test_naive_greedy_facility_location():
    # empty start: gains are row sums 2.0, 2.1, 1.3 -> 1; then best is
    # (.9, 1, .2): node 0 adds .1, node 2 adds .8 -> 2, then 0
    assert ref.naive_greedy(FL_KERNEL, [], "facility_location") == [1, 2, 0]
    # starting from {0}: best (1, .9, .1): node 1 adds .2, node 2 adds .9
    assert ref.naive_greedy(FL_KERNEL, [0], "facility_location") == [2, 1]
    # all gains equal: ascending index
    assert ref.naive_greedy(np.eye(3), [], "facility_location") == [0, 1, 2]


GC_KERNEL = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])


def test_naive_greedy_graph_cut():
    # lam=2, row sums 3, 4, 3: first gains 2*rowsum - K[v,v] = 4, 6, 4 -> 1;
    # then 0 and 2 both gain 6 - 2 - 2 = 2 -> the lower index, 0; then 2
    assert ref.naive_greedy(GC_KERNEL, [], "graph_cut", lam=2.0) == [1, 0, 2]
    assert ref.graph_cut(GC_KERNEL, [1], 2.0) == 6.0
    assert ref.graph_cut(GC_KERNEL, [1, 0], 2.0) == 8.0
    assert ref.graph_cut(GC_KERNEL, [0, 1, 2], 2.0) == 10.0


@pytest.mark.parametrize("kind", ["facility_location", "graph_cut"])
def test_naive_greedy_follows_the_set_function(kind):
    # greedy driven by f(S + v) - f(S) computed from the set function itself
    rng = np.random.default_rng(0)
    a = rng.random((7, 7))
    k = (a + a.T) / 2.0
    if kind == "facility_location":
        f = ref.facility_location
    else:
        def f(kk, s):
            return ref.graph_cut(kk, s, 1.5)
    chosen, want = [4], []
    while len(chosen) < 7:
        rest = [v for v in range(7) if v not in chosen]
        gains = [f(k, chosen + [v]) - f(k, chosen) for v in rest]
        want.append(rest[int(np.argmax(gains))])
        chosen.append(want[-1])
    assert ref.naive_greedy(k, [4], kind, lam=1.5) == want
    assert ref.is_greedy_order(k, [4], want, kind, lam=1.5)


def test_is_greedy_order_accepts_either_side_of_a_tie():
    assert ref.is_greedy_order(GC_KERNEL, [], [1, 0, 2], "graph_cut")
    assert ref.is_greedy_order(GC_KERNEL, [], [1, 2, 0], "graph_cut")
    assert not ref.is_greedy_order(GC_KERNEL, [], [0, 1, 2], "graph_cut")
    assert not ref.is_greedy_order(FL_KERNEL, [0], [1, 2], "facility_location")
    assert not ref.is_greedy_order(FL_KERNEL, [0], [2], "facility_location")


def test_is_forest():
    assert ref.is_forest(3, np.array([[0, 1], [1, 2]]))
    assert not ref.is_forest(3, np.array([[0, 1], [1, 2], [2, 0]]))
    assert ref.is_forest(2, np.zeros((0, 2), dtype=np.int64))


def test_canonical_edges_drop_loops_and_repeats():
    got = inputs.canonical_edges([1, 2, 2, 0, 3], [0, 3, 2, 1, 2])
    assert got.tolist() == [[0, 1], [2, 3]]


@pytest.mark.parametrize("share", [0.0, 1.0])
def test_planted_homophily_extremes(share):
    rng = np.random.default_rng(3)
    y = rng.integers(0, 4, size=400)
    edges = inputs.planted_homophily(y, (share, share), 10.0, rng)
    assert ref.edge_homophily(edges, y) == share
    assert np.all(edges[:, 0] < edges[:, 1])


def test_chung_lu_degree_profile():
    rng = np.random.default_rng(4)
    edges = inputs.chung_lu(5000, 2.3, 12.0, 300.0, rng)
    deg = np.bincount(edges.ravel(), minlength=5000)
    assert 10.0 < deg.mean() < 12.5
    assert 200 < deg.max() < 400
    assert np.median(deg) < deg.mean()  # heavy right tail


def test_writers_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3))
    inputs.write_features(tmp_path / "x.csv", x)
    assert np.array_equal(np.loadtxt(tmp_path / "x.csv", delimiter=","), x)
    inputs.write_edge_list(tmp_path / "g.edges", 6, np.array([[0, 1], [2, 5]]))
    assert (tmp_path / "g.edges").read_text() == "# n=6\n0 1\n2 5\n"
    inputs.write_labels(tmp_path / "y.txt", np.array([2, 0]))
    assert (tmp_path / "y.txt").read_text() == "2\n0\n"
