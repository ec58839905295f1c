"""Graph core: CSR construction, loaders, subgraphs, rank-table persistence."""

import itertools
import sys
import warnings

import numpy as np
import pytest
from oracles import (
    build_subgraph_dict,
    from_edges_stable,
    load_edge_list_loop,
    load_features_loop,
    load_id_file_loop,
    load_labels_loop,
    validate,
    validate_loop,
)

from ags import cli, textscan
from ags import graph as G
from ags import sampling as SA


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
        validate(g)

    def test_csr_validity_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            g = fuzz_graph(rng, directed=bool(rng.integers(2)))
            validate(g)

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


def _csr(n, rows, directed=False):
    """A Graph straight from per-row target lists, unchecked."""
    offsets = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    targets = np.array([v for r in rows for v in r], dtype=np.int64)
    return G.Graph(n=n, offsets=offsets, targets=targets, directed=directed)


# (name, graph) cases that validate must refuse with the loop's message
BAD_GRAPHS = {
    "unsorted-row": _csr(4, [[1, 2], [0, 3], [0], [3, 1]], directed=True),
    "repeated-target": _csr(3, [[1, 1], [0, 2, 2], [1, 1]]),
    "later-unsorted-row": _csr(5, [[1], [0, 2], [1], [4, 4], [3]]),
    "missing-reverse": _csr(4, [[1, 3], [0, 2], [1], []]),
    "missing-reverse-last": _csr(4, [[1], [0], [3], [1, 2]]),
    "three-missing-reverses": _csr(4, [[1, 3], [0, 2], [], [2]]),
    "self-loop-only-edge-missing": _csr(3, [[0, 2], [], []]),
    "target-out-of-range": _csr(3, [[1], [0, 3], []]),
    "negative-target": _csr(3, [[-1, 1], [0], []]),
}


def _error(check, g):
    """The message of the ValueError ``check(g)`` raises, or None."""
    try:
        check(g)
    except ValueError as exc:
        return str(exc)
    return None


class TestValidate:
    @pytest.mark.parametrize("name", sorted(BAD_GRAPHS))
    def test_message_matches_loop(self, name):
        g = BAD_GRAPHS[name]
        want = _error(validate_loop, g)
        assert want is not None and _error(validate, g) == want

    def test_fuzz_edges_dropped(self):
        # an undirected graph with one to three stored directions removed
        # names the same first lone edge as the loop, in CSR order
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = fuzz_graph(rng, p=0.3)
            validate(g)
            if g.m < 2:
                continue
            keep = np.ones(g.m, dtype=bool)
            keep[rng.integers(g.m, size=int(rng.integers(1, 4)))] = False
            src = np.repeat(np.arange(g.n), g.degrees())[keep]
            offsets = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=g.n))])
            bad = G.Graph(n=g.n, offsets=offsets, targets=g.targets[keep], directed=False)
            assert _error(validate, bad) == _error(validate_loop, bad)


def _edge_cases(rng):
    """(n, src, dst) inputs heavy in repeats: duplicate edges, self-loops,
    a hub whose keys tie, empty input and one-node graphs."""
    yield 0, [], []
    yield 1, [], []
    yield 1, [0, 0, 0], [0, 0, 0]
    yield 5, [2, 2, 2, 2], [2, 4, 2, 4]
    for _ in range(60):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 4 * n))
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        hub = rng.random(m) < 0.3  # many edges of one vertex, many repeated
        src[hub] = 0
        dst[hub] = rng.integers(0, max(1, n // 4), size=int(hub.sum()))
        loops = rng.random(m) < 0.1
        dst[loops] = src[loops]
        yield n, src, dst


class TestFromEdgesAgainstStableSort:
    """One sort and a divmod give the bytes of the stable-argsort merge."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_byte_equal_fuzz(self, directed):
        for n, src, dst in _edge_cases(np.random.default_rng(12)):
            g = G.from_edges(n, src, dst, directed=directed)
            offsets, targets = from_edges_stable(n, src, dst, directed=directed)
            assert g.offsets.tobytes() == offsets.tobytes()
            assert g.targets.dtype == targets.dtype == np.int64
            assert g.targets.tobytes() == targets.tobytes()


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

    def test_header_after_ids_reports_line(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 3\n# n=2\n")
        with pytest.raises(ValueError, match=r"^line 1: id 3 >= declared n=2$"):
            G.load_edge_list(str(p))

    def test_disagreeing_headers_name_both_lines(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# n=4\n0 1\n#n = 3\n")
        with pytest.raises(ValueError, match=r"^line 3: header n=3 contradicts n=4 on line 1$"):
            G.load_edge_list(str(p))

    def test_agreeing_headers_accepted(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# n=4\n0 1\n# n=4\n")
        assert G.load_edge_list(str(p)).n == 4

    def test_trailing_comments_accepted(self, tmp_path):
        e, x, y = tmp_path / "g.edges", tmp_path / "x.csv", tmp_path / "y.txt"
        e.write_text("0 1 # first\n1 2 0.5\t#weighted\n2 0 # n=9: not a header on a data line\n")
        x.write_text("1.0,2.0 # row 0\n3.0, 4.0#row 1\n")
        y.write_text("0 # a\n1#b\n")
        g = G.load_edge_list(str(e))
        assert g.n == 3 and g.m == 6
        assert G.load_features(str(x)).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert G.load_labels(str(y)).tolist() == [0, 1]



# ------------------------------------------------------------ bulk reader
#
# Files the per-line oracles and the bulk reader both accept: no comment
# after data on a line, at most one header, every id below it.

_EOLS = ("\n", "\r\n", "\r")
_GAPS = (" ", "\t", "  ", " \t ", "\t\t")
_PADS = ("", "", " ", "\t", " \t")


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _int_text(rng, v):
    return _pick(rng, ("{}", "{}", "+{}", "00{}")).format(v) if v >= 0 else str(v)


def _real_text(rng):
    v = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
    k = int(rng.integers(9))
    if k == 0:
        return repr(v)
    if k == 1:
        return "%.25e" % v
    if k == 2:
        return str(int(rng.integers(-50, 50)))
    if k == 3:
        return _pick(rng, ("+2.5", "-0", "0.", ".25", "1E2", "-1e-320", "5e-324", "3.0e+00"))
    if k == 4:
        return str(10 ** 29 + int(rng.integers(10 ** 6)))  # a 30-digit integer
    return "%.17g" % v


def _weight_text(rng):
    return _pick(rng, ("0.5", "7", "1e-3", "+2.5", "0", "-0", "3.", ".25", "1E2",
                       "0.1000000000000000055511"))


def _write(path, lines, rng):
    """Join lines with random line ends; blank and comment lines between."""
    parts = []
    for line in lines:
        while rng.random() < 0.15:
            parts.append(_pick(rng, ("", "  ", "\t", "#", "# a comment", "  # x y z", "#n x")))
        parts.append(line)
    text = "".join(part + _pick(rng, _EOLS) for part in parts)
    if parts and rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no final line end
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _edge_lines(rng, n, header):
    lines = []
    for _ in range(int(rng.integers(0, 40))):
        u, v = (_int_text(rng, int(x)) for x in rng.integers(0, n, size=2))
        cells = [u, v] + ([_weight_text(rng)] if rng.random() < 0.3 else [])
        lines.append(_pick(rng, _PADS) + _pick(rng, _GAPS).join(cells) + _pick(rng, _PADS))
    if header:
        header = _pick(rng, ("# n={}", "#n = {}", "  # n={}")).format(n)
        lines.insert(int(rng.integers(len(lines) + 1)), header)
    return lines


def _feature_lines(rng):
    width = int(rng.integers(1, 6))
    return [
        _pick(rng, _PADS)
        + ",".join(_pick(rng, _PADS) + _real_text(rng) + _pick(rng, _PADS) for _ in range(width))
        + _pick(rng, _PADS)
        for _ in range(int(rng.integers(1, 30)))
    ]


def _int_lines(rng, low):
    return [
        _pick(rng, _PADS) + _int_text(rng, int(v)) + _pick(rng, _PADS)
        for v in rng.integers(low, 12, size=int(rng.integers(1, 30)))
    ]


def _outcome(load, path):
    try:
        return "ok", load(path)
    except ValueError as exc:
        return "error", str(exc)


def _same(a, b):
    if a[0] != b[0] or a[0] == "error":
        return a == b
    x, y = a[1], b[1]
    if isinstance(x, G.Graph):
        x, y = ((g.n, g.offsets.tobytes(), g.targets.tobytes()) for g in (x, y))
        return x == y
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


_FORMATS = {
    "edges": (G.load_edge_list, load_edge_list_loop),
    "features": (G.load_features, load_features_loop),
    "labels": (G.load_labels, load_labels_loop),
    "seeds": (cli._load_id_file, load_id_file_loop),
}


def _lines(rng, kind, header=None):
    n = int(rng.integers(1, 30))
    if kind == "edges":
        return _edge_lines(rng, n, bool(rng.integers(2)) if header is None else header), n
    if kind == "features":
        return _feature_lines(rng), n
    return _int_lines(rng, -5 if kind == "seeds" else 0), n


def _inject(rng, kind, lines, n):
    """Replace one data line by a line the oracle rejects."""
    data = [i for i, line in enumerate(lines) if line.strip() and not line.strip().startswith("#")]
    if not data:
        return None
    i = data[int(rng.integers(len(data)))]
    if kind == "edges":
        bad = ["1", "1 2 3 4", "1.5 2", "a 2", "1 0x3", "-1 2", "1 2 abc", "1 2 nan",
               "1 2 inf", "1 2 -0.5", "1\t2\t1e999", f"0 {n + 3}"]
        choice = _pick(rng, bad)
        if choice == f"0 {n + 3}":
            lines = [line for line in lines if not line.strip().startswith("#")]
            lines.insert(0, f"# n={n}")
            i = int(rng.integers(1, len(lines)))
    elif kind == "features":
        cells = lines[i].split(",")
        choice = _pick(rng, (
            ",".join(cells[:-1] + ["1.0", "2.0"]),
            ",".join(cells + ["1"]) if len(cells) > 1 else "1,2,3,4,5,6",
            "abc", "1.2.3", "1 2", ",".join(cells[:-1] + [""]), ",".join(["inf"] + cells[1:]),
            ",".join(cells[:-1] + ["nan"]), ",".join(["1e999"] + cells[1:]),
            ",".join(cells[:-1] + ["-"]),
        ))
    else:
        choice = _pick(rng, ("1.5", "x", "1 2", "-3", "+", "0x1"))
    lines = list(lines)
    lines[i] = _pick(rng, _PADS) + choice
    return lines


class TestBulkReader:
    @pytest.mark.parametrize("kind", sorted(_FORMATS))
    def test_valid_files_match_oracle(self, tmp_path, kind):
        new, old = _FORMATS[kind]
        rng = np.random.default_rng([21, len(kind)])
        path = str(tmp_path / "f")
        for _ in range(150):
            lines, _ = _lines(rng, kind)
            _write(path, lines, rng)
            want = _outcome(old, path)
            assert want[0] == "ok", (want, open(path, "rb").read())
            got = _outcome(new, path)
            assert _same(got, want), (got, want, open(path, "rb").read())

    @pytest.mark.parametrize("kind", sorted(_FORMATS))
    def test_empty_file_matches_oracle(self, tmp_path, kind):
        new, old = _FORMATS[kind]
        path = tmp_path / "f"
        for text in ("", "\n\n", "# only a comment\r\n", "   \t\r"):
            path.write_text(text, newline="")
            assert _same(_outcome(new, str(path)), _outcome(old, str(path)))

    @pytest.mark.parametrize("kind", sorted(_FORMATS))
    def test_one_error_matches_oracle(self, tmp_path, kind):
        new, old = _FORMATS[kind]
        rng = np.random.default_rng([22, len(kind)])
        path = str(tmp_path / "f")
        checked = 0
        while checked < 150:
            lines, n = _lines(rng, kind, header=False)
            lines = _inject(rng, kind, lines, n)
            if lines is None:
                continue
            _write(path, lines, rng)
            want = _outcome(old, path)
            if want[0] == "ok":  # e.g. "-3" in a seed file
                continue
            got = _outcome(new, path)
            assert got == want, (open(path, "rb").read(),)
            checked += 1

    def test_nan_with_payload_rejected(self, tmp_path):
        """np.fromstring reads ``nan(1)``; float() and the loaders do not."""
        x, e = tmp_path / "x.csv", tmp_path / "g.edges"
        x.write_text("1.0,2.0\n1.0,nan(1)\n")
        e.write_text("0 1 nan(2)\n")
        for path, kind in ((x, "features"), (e, "edges")):
            new, old = _FORMATS[kind]
            got, want = _outcome(new, str(path)), _outcome(old, str(path))
            assert got == want and got[0] == "error", (got, want)

    def test_number_grammar_matches_python(self, tmp_path):
        """Every token of up to 4 bytes from a number alphabet: float()'s and int()'s verdict."""
        for alphabet, ok_fn, kind in (
            ("01.eE+-infatyNIx", float, "real"),
            ("019+-.e_x", int, "int"),
        ):
            tokens = [
                "".join(t) for k in range(1, 5) for t in itertools.product(alphabet, repeat=k)
            ]
            want = []
            for token in tokens:
                try:
                    ok_fn(token)
                    want.append("_" not in token)  # digit separators are not ASCII decimal
                except ValueError:
                    want.append(False)
            path = tmp_path / f"{kind}.txt"
            path.write_text("\n".join(tokens) + "\n")
            s = textscan.scan(str(path))
            every = np.arange(len(tokens))
            if kind == "int":
                got = textscan.int_tokens_ok(s, every)
            else:
                got = textscan.real_tokens_ok(s, every)
                # the conversion call alone gives the same verdict where it decides
                plain = ["x" not in t for t in tokens]
                for token, ok, p in zip(tokens[::97], np.array(want)[::97], plain[::97]):
                    if p:
                        try:
                            np.fromstring(token, dtype=np.float64, sep=" ")
                            assert ok, token
                        except ValueError:
                            assert not ok, token
            wrong = [t for t, a, b in zip(tokens, got, want) if a != b]
            assert not wrong, wrong[:10]


def _profiled_calls(fn, path):
    """Function calls (Python and C) and Python lines run by ``fn(path)``.

    ``sys.setprofile`` counts the calls; ``sys.settrace`` counts lines,
    which also catches a comprehension whose body only builds objects.
    """
    calls = lines = 0

    def count_call(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    def count_line(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_line

    previous = sys.gettrace()
    sys.setprofile(count_call)
    sys.settrace(count_line)
    try:
        fn(path)
    finally:
        sys.settrace(previous)
        sys.setprofile(None)
    return calls, lines


def _bulk_file(path, kind, lines):
    rng = np.random.default_rng(3)
    if kind == "edges":
        body = ["# n=1000"] + [f"{u} {v}" for u, v in rng.integers(0, 1000, size=(lines, 2))]
    elif kind == "features":
        body = [",".join("%.17g" % v for v in row) for row in rng.normal(size=(lines, 4))]
    else:
        body = [str(v) for v in rng.integers(0, 5, size=lines)]
    path.write_text("\n".join(body) + "\n")
    return str(path)


class TestLoadersStayBulk:
    """A loader's Python-level call count must not grow with the file."""

    @pytest.mark.parametrize("kind", sorted(_FORMATS))
    def test_call_count_independent_of_lines(self, tmp_path, kind):
        new, old = _FORMATS[kind]
        small = _bulk_file(tmp_path / "small", kind, 2_000)
        large = _bulk_file(tmp_path / "large", kind, 20_000)
        new(small)  # warm imports and caches
        assert _profiled_calls(new, small) == _profiled_calls(new, large)
        # the per-line oracle fails the same check
        assert _profiled_calls(old, large)[0] > _profiled_calls(old, small)[0] + 10_000

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
        for seeds, edges in (([5], []), ([0], [(0, 2)]), ([], [(-1, 0)])):
            with pytest.raises(ValueError, match="out of range"):
                G.build_subgraph(g, seeds=seeds, edges=edges)

    def test_matches_dict_remap_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            g = G.from_edges(n, [], [], directed=True)
            seeds = rng.integers(0, n, size=int(rng.integers(0, 6)))
            edges = rng.integers(0, n, size=(int(rng.integers(0, 60)), 2))
            got = G.build_subgraph(g, seeds, edges)
            ids, local, mask, _ = build_subgraph_dict(g, seeds, edges)
            assert np.array_equal(got.parent_ids, ids)
            assert np.array_equal(got.graph.offsets, local.offsets)
            assert np.array_equal(got.graph.targets, local.targets)
            assert got.graph.n == local.n and got.graph.directed
            assert np.array_equal(got.seed_mask, mask)
            assert got.layers is None


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

    @pytest.mark.parametrize("offset,value", [(32, float("nan")), (-8, float("inf"))])
    def test_model_parameters_checked_behind_a_valid_checksum(self, tmp_path, offset, value):
        # a similarity model file shares the frame: a non-finite weight
        # (the first) or bias (the last) fails behind a valid checksum
        import struct
        import zlib

        from ags import similarity

        path = tmp_path / "m.model"
        similarity.save_similarity_model(
            str(path), similarity.new_siamese(3, 4, 2, np.random.default_rng(0))
        )
        blob = bytearray(path.read_bytes())[:-4]
        struct.pack_into("<d", blob, offset % len(blob), value)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="corrupt similarity model: .*finite"):
            similarity.load_similarity_model(str(path))

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

    def test_graph_order_is_the_stable_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = fuzz_graph(rng, p=0.3)
            rows = np.repeat(np.arange(g.n), g.degrees())
            ranked = g.targets[np.lexsort((rng.random(g.m), rows))]
            rt = G.make_rank_table("uniform", "uniform", (0,) * 6, g.offsets, ranked, np.ones(g.m))
            order = rt.graph_order(g)
            assert np.array_equal(order, np.argsort(rows * g.n + ranked, kind="stable"))
            assert np.array_equal(ranked[order], g.targets)

    @pytest.mark.parametrize("ranked", [[1, 1, 2], [2, 2, 2], [5, 1, 1], [1, 2, -2]])
    def test_graph_order_rejects_tied_or_foreign_ids(self, ranked):
        # equal keys (a repeated id, or ids out of range that collide
        # across rows) cannot pass, whatever order they sort in
        g = G.from_edges(4, [0, 0, 1], [1, 2, 2], directed=True)
        rt = G.make_rank_table("uniform", "uniform", (0,) * 6, [0, 2, 3, 3, 3], ranked, [1.0] * 3)
        with pytest.raises(ValueError, match="permutation"):
            rt.graph_order(g)

    def test_graph_order_packed_equals_argsort(self, monkeypatch):
        # self-loops, both edge directions, empty rows; the packed sort
        # and the argsort it falls back to give the same permutation
        rng = np.random.default_rng(4)
        for trial in range(60):
            g = fuzz_graph(rng, n_max=60, p=rng.choice([0.02, 0.2, 0.6]), directed=trial % 2 == 0)
            rows = np.repeat(np.arange(g.n), g.degrees())
            ranked = g.targets[np.lexsort((rng.random(g.m), rows))]
            rt = G.make_rank_table("uniform", "uniform", (0,) * 6, g.offsets, ranked, np.ones(g.m))
            want = np.argsort(rows * g.n + ranked)
            assert rt.graph_order(g).tobytes() == want.tobytes()
            with monkeypatch.context() as m:
                m.setattr(G, "_packed_sort", lambda major, minor, bits: None)
                assert rt.graph_order(g).tobytes() == want.tobytes()


class TestPackedSort:
    def test_layout_and_order(self):
        rng = np.random.default_rng(5)
        major = rng.integers(0, 2**20, size=500)
        minor = rng.integers(0, 2**40, size=500)
        got = G._packed_sort(major, minor, 40)
        order = np.lexsort((minor, major))
        assert np.array_equal(got >> 40, major[order])
        assert np.array_equal(got & (2**40 - 1), minor[order])

    def test_none_when_major_does_not_fit(self):
        assert G._packed_sort(np.array([2**22]), np.array([0]), 40) is not None
        assert G._packed_sort(np.array([2**23 - 1]), np.array([0]), 40) is not None
        assert G._packed_sort(np.array([0, 2**23]), np.array([0, 0]), 40) is None
        assert G._packed_sort(np.array([1]), np.array([0]), 63) is None
        assert G._packed_sort(np.array([0]), np.array([5]), 63).tolist() == [5]
        assert G._packed_sort(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 70).size == 0


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

    INVALID = [
        ([0, 2, 5, 5, 5], [0.0, 0.0, 0.5, 0.25, 0.25]),  # zero-mass row
        ([0, 2, 5, 5, 5], [np.nan, 1.0, 0.5, np.inf, -0.25]),
        ([0, 2, 5, 5, 5], [0.5, 0.5, np.inf, 0.25, 0.25]),  # infinite row total
        ([0, 4, 2, 5, 5], [0.75, 0.25, 0.5, 0.25, 0.25]),  # decreasing
        ([3, 9, 9, 9, 2], [0.75, 0.25, 0.5, 0.25, 0.25]),  # past the end
    ]

    @pytest.mark.parametrize("offsets, probs", INVALID)
    def test_invalid_tables_construct_then_fail_validate(self, offsets, probs, tmp_path):
        rt = G.make_rank_table(
            "similar", "step", (0.0,) * 6, offsets, [1, 2, 0, 2, 3], probs
        )
        assert rt.cdf.shape == (5,)
        with pytest.raises(ValueError):
            rt.validate()
        path = tmp_path / "t.agsr"
        with pytest.raises(ValueError, match="rank table not written"):
            G.save_rank_table(rt, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("offsets, probs", INVALID)
    def test_invalid_tables_draw_inside_their_rows(self, offsets, probs):
        # ids equal to positions show which entry each draw landed on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rt = G.make_rank_table("similar", "step", (0.0,) * 6, offsets, np.arange(5), probs)
        assert rt.guide.dtype == np.int32 and rt.guide.shape == (5,)
        assert not rt.guide.flags.writeable
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(0).random(300)])
        off = np.asarray(offsets)
        rows = np.flatnonzero(off[1:] > off[:-1])
        assert rows.size
        for r in rows.tolist():
            lo, hi = off[r], min(off[r + 1], rt.m)
            pos = SA._inverse_cdf(rt, np.full(u.size, r), u)
            assert np.all((lo <= pos) & (pos < hi)), r
            _, picks = SA.sample_frontier(rt, [r], 100, True, np.random.default_rng(r))
            assert np.all((lo <= picks) & (picks < hi)), r

    def test_guide_points_at_the_first_entry_past_each_slot(self):
        # row 0 of toy_table has masses 0.75, 0.25: slot 1 of 2 starts at
        # 0.5, still inside the first entry; row 1 has three entries
        # ending at 0.5, 0.75 and 1, so slots 1/3 and 2/3 land on entries
        # 0 and 1
        rt = toy_table()
        assert rt.guide.tolist() == [0, 0, 0, 0, 1]
        assert rt.guide.dtype == np.int32 and not rt.guide.flags.writeable
        d = np.diff(rt.offsets)
        for r in np.flatnonzero(d).tolist():
            lo, hi = rt.offsets[r], rt.offsets[r + 1]
            mass = rt.cdf[lo:hi] - r
            for j in range(hi - lo):
                assert rt.guide[lo + j] == np.searchsorted(mass, j / (hi - lo), side="right")
