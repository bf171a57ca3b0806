import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpath_kernel.cli import main
from kpath_kernel.graphs import Graph, is_simple_path, write_graph_text
from kpath_kernel.linkage import LinkageInstance, instance_to_json
from kpath_kernel.treedecomp import compute_decomposition, write_td


@pytest.fixture()
def workdir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def last_json(capsys):
    out = capsys.readouterr().out.strip()
    return json.loads(out)


class TestCli:
    def test_gen_solve_round_trip(self, workdir, capsys):
        assert main(["gen", "--n", "14", "--k", "3", "--eta", "1", "--ell", "2",
                     "--seed", "9", "--out", "inst"]) == 0
        meta = last_json(capsys)
        assert meta["n"] == 14
        assert main(["solve", "--graph", meta["graph"], "--k", "3"]) == 0
        answer = last_json(capsys)
        assert answer["answer"] in ("yes", "no")
        assert main(["solve", "--graph", meta["graph"], "--k", "3",
                     "--method", "bruteforce"]) == 0
        assert last_json(capsys)["answer"] == answer["answer"]

    def test_linkage_solve_yes_and_no(self, workdir, capsys, tmp_path):
        g = Graph.from_edges([1, 2], [(1, 2)])
        inst = LinkageInstance(g, 2, frozenset({1, 2}), (frozenset({1, 2}),))
        f = write(tmp_path / "inst.json", json.dumps(instance_to_json(inst)))
        assert main(["linkage", "solve", f]) == 0
        out = capsys.readouterr().out
        assert out.startswith("YES")
        assert "1 2" in out
        inst_no = LinkageInstance(g, 3, frozenset({1, 2}), (frozenset({1, 2}),))
        f2 = write(tmp_path / "no.json", json.dumps(instance_to_json(inst_no)))
        assert main(["linkage", "solve", f2]) == 0
        assert capsys.readouterr().out.strip() == "NO"

    def test_kernelize_with_stats_file(self, workdir, capsys, tmp_path):
        g = Graph.from_edges(range(1, 9), [(i, i + 1) for i in range(1, 8)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        stats = tmp_path / "stats.json"
        assert main(["kernelize", "--graph", gfile, "--k", "3",
                     "--stats", str(stats)]) == 0
        data = json.loads(stats.read_text())
        assert data["answer"] == "yes"
        assert "p_threshold" in data["bounds"] and "h_hat" in data["bounds"]

    def test_kernelize_with_td_file(self, workdir, capsys, tmp_path):
        g = Graph.from_edges(range(1, 7), [(i, i + 1) for i in range(1, 6)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        td = compute_decomposition(g)
        tdfile = write(tmp_path / "g.td", write_td(td))
        assert main(["kernelize", "--graph", gfile, "--k", "2",
                     "--td", tdfile]) == 0
        assert last_json(capsys)["answer"] == "yes"

    def test_modkernel(self, workdir, capsys, tmp_path):
        assert main(["gen", "--n", "12", "--k", "3", "--eta", "1", "--ell", "2",
                     "--seed", "4", "--out", "mk"]) == 0
        meta = last_json(capsys)
        stats = tmp_path / "mk.json"
        assert main(["modkernel", "--graph", meta["graph"],
                     "--modulator", meta["modulator"], "--k", "3",
                     "--eta", "1", "--stats", str(stats)]) == 0
        data = json.loads(stats.read_text())
        assert {"m_threshold", "rho", "final_size_bound", "components_reduced",
                "families_truncated"} <= set(data)

    def test_validate_td_accepts_and_rejects(self, workdir, capsys, tmp_path):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        good = write(tmp_path / "good.td", write_td(compute_decomposition(g)))
        assert main(["validate-td", "--graph", gfile, "--td", good]) == 0
        assert last_json(capsys)["valid"] is True
        bad = write(tmp_path / "bad.td", "s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n")
        assert main(["validate-td", "--graph", gfile, "--td", bad]) == 1
        report = last_json(capsys)
        assert report["valid"] is False and report["violations"]

    def test_validate_td_validates_once(self, workdir, capsys, tmp_path, monkeypatch):
        from kpath_kernel import cli, treedecomp

        calls = []
        real = treedecomp.validate

        def counting(td):
            calls.append(td)
            return real(td)

        monkeypatch.setattr(treedecomp, "validate", counting)
        monkeypatch.setattr(cli, "td_validate", counting)
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        good = write(tmp_path / "good.td", write_td(compute_decomposition(g)))
        assert main(["validate-td", "--graph", gfile, "--td", good]) == 0
        assert last_json(capsys) == {
            "valid": True,
            "violations": [],
            "stats": {"width": 1, "adhesion": 1, "adhesion_degree": 2},
        }
        assert len(calls) == 1

    def test_validate_td_rejects_unknown_bag_vertices(self, workdir, capsys, tmp_path):
        g = Graph.from_edges([1, 2], [(1, 2)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        td = write(tmp_path / "bad.td", "s td 2 3 2\nb 1 1 2\nb 2 2 98 99\n1 2\n")
        assert main(["validate-td", "--graph", gfile, "--td", td]) == 1
        report = last_json(capsys)
        assert report["valid"] is False
        assert report["violations"] == [
            {"axiom": "unknown-vertex", "witness": "98"},
            {"axiom": "unknown-vertex", "witness": "99"},
        ]

    def test_suite_exit_codes(self, workdir, capsys, tmp_path):
        report = tmp_path / "suite.json"
        assert main(["suite", "--count", "4", "--seed", "3", "--max-n", "12",
                     "--max-k", "3", "--max-eta", "1", "--max-ell", "2",
                     "--out-dir", str(tmp_path), "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["ok"] is True and data["instances"] == 4

    def test_bruteforce_oracle_choice(self, workdir, capsys, tmp_path):
        g = Graph.from_edges(range(1, 7), [(i, i + 1) for i in range(1, 6)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        assert main(["kernelize", "--graph", gfile, "--k", "4",
                     "--oracle", "bruteforce"]) == 0
        assert last_json(capsys)["answer"] == "yes"

    def test_input_errors_exit_2(self, workdir, capsys, tmp_path):
        missing = str(tmp_path / "nope.gr")
        assert main(["solve", "--graph", missing, "--k", "2"]) == 2

    @pytest.mark.parametrize("method", ["linkage", "bruteforce"])
    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_solve_rejects_k_below_one(self, workdir, capsys, tmp_path, method, k):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        assert main(["solve", "--graph", gfile, "--k", k, "--method", method]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InputError", "detail": "k must be >= 1"}

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_suite_rejects_count_below_one(self, workdir, capsys, tmp_path, count):
        assert main(["suite", "--count", count, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err == {"error": "InputError", "detail": "count must be >= 1"}

    @pytest.mark.parametrize(
        "flag, value, detail",
        [
            ("--max-n", "5", "max-n must be >= 6"),
            ("--max-n", "3", "max-n must be >= 6"),
            ("--max-k", "0", "max-k must be >= 1"),
            ("--max-eta", "-1", "max-eta must be >= 0"),
            ("--max-ell", "-1", "max-ell must be >= 0"),
        ],
    )
    def test_suite_rejects_stream_bounds_it_cannot_draw_from(
        self, workdir, capsys, tmp_path, flag, value, detail
    ):
        assert main(["suite", "--count", "2", flag, value, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "InputError", "detail": detail}

    @pytest.mark.parametrize("max_n", ["33", "40"])
    def test_suite_rejects_max_n_above_the_brute_force_cap(self, workdir, capsys, tmp_path, max_n):
        # a small count used to draw no instance above the cap and exit 0
        assert main(["suite", "--count", "3", "--max-n", max_n, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "InputError",
            "detail": "max-n must be <= 32, the brute-force reference's cap",
        }

    def test_suite_accepts_the_smallest_stream_bounds(self, workdir, capsys, tmp_path):
        assert main(["suite", "--count", "2", "--max-n", "6", "--max-k", "1", "--max-eta", "0",
                     "--max-ell", "0", "--out-dir", str(tmp_path)]) == 0
        assert last_json(capsys)["instances"] == 2

    def test_bruteforce_solve_on_a_long_path(self, workdir, capsys, tmp_path):
        n = 1500
        g = Graph.from_edges(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
        gfile = write(tmp_path / "long.gr", write_graph_text(g))
        assert main(["solve", "--graph", gfile, "--k", str(n),
                     "--method", "bruteforce", "--cap", "2000"]) == 0
        assert last_json(capsys) == {"answer": "yes", "path": list(range(1, n + 1))}

    def test_solve_on_a_long_path(self, tmp_path):
        # a fresh interpreter, at the default recursion limit: the solver
        # must not recurse once per path vertex
        n = 1500
        g = Graph.from_edges(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
        gfile = write(tmp_path / "long.gr", write_graph_text(g))
        proc = subprocess.run(
            [sys.executable, "-m", "kpath_kernel.cli", "solve", "--graph", gfile, "--k", str(n)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["answer"] == "yes" and len(out["path"]) == n
        assert is_simple_path(g, out["path"])

    def test_linkage_solve_with_many_requests(self, tmp_path):
        # nor once per request
        r = 1200
        g = Graph.from_edges(range(1, 2 * r + 1), [(2 * i - 1, 2 * i) for i in range(1, r + 1)])
        reqs = tuple(frozenset({2 * i - 1, 2 * i}) for i in range(1, r + 1))
        inst = LinkageInstance(g, 2 * r, frozenset(g.vertices), reqs)
        f = write(tmp_path / "many.json", json.dumps(instance_to_json(inst)))
        proc = subprocess.run(
            [sys.executable, "-m", "kpath_kernel.cli", "linkage", "solve", f],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "YES"

    @pytest.mark.parametrize(
        "text",
        [
            "p 2 1\n1 x\n",  # non-integer vertex id
            "p x 0\n",  # non-integer header
            "p 3 2\n1 2\n1 2\n",  # repeated edge
            "p 3 2\n1 2\n2 1\n",  # repeated edge, other orientation
            "p 2 1\n1 1\n",  # self-loop
            "p 2 1\n1 9\n",  # endpoint outside 1..n
            "p -3 0\n",  # negative vertex count
            "p 3 -1\n",  # negative edge count
        ],
    )
    def test_solve_rejects_malformed_graph(self, workdir, capsys, tmp_path, text):
        gfile = write(tmp_path / "bad.gr", text)
        assert main(["solve", "--graph", gfile, "--k", "2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError" and "line " in err["detail"]

    @pytest.mark.parametrize(
        "td_text",
        [
            "s td 1 2 2\nb 1 1 x\n",
            "c root x\ns td 1 2 2\nb 1 1 2\n",
            "s td 1 two 2\nb 1 1 2\n",
            "s td 1 2 2\nb\n",
            "c root 5\ns td 1 2 2\nb 1 1 2\n",
        ],
    )
    def test_validate_td_rejects_malformed_file(self, workdir, capsys, tmp_path, td_text):
        g = Graph.from_edges([1, 2], [(1, 2)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        tdfile = write(tmp_path / "bad.td", td_text)
        assert main(["validate-td", "--graph", gfile, "--td", tdfile]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    def test_kernelize_rejects_invalid_td_file(self, workdir, capsys, tmp_path):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        # parses, but edge (2, 3) lies in no bag
        tdfile = write(tmp_path / "bad.td", "s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n")
        assert main(["kernelize", "--graph", gfile, "--k", "2", "--td", tdfile]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    def test_kernelize_names_the_first_three_violations_of_a_td_file(self, workdir, capsys, tmp_path):
        g = Graph.from_edges(range(1, 6), [(i, i + 1) for i in range(1, 5)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        # 5 lies in no bag, 9 is no vertex, three edges lie in no bag and
        # the holders of 1 are not adjacent
        tdfile = write(tmp_path / "bad.td", "s td 3 3 5\nb 1 1 2 9\nb 2 3\nb 3 1 4\n1 2\n2 3\n")
        assert main(["kernelize", "--graph", gfile, "--k", "2", "--td", tdfile]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "InputError",
            "detail": "invalid decomposition: [Violation(axiom='coverage', witness=5), "
            "Violation(axiom='unknown-vertex', witness=9), "
            "Violation(axiom='edge-coverage', witness=(2, 3))]",
        }

    def test_modkernel_rejects_malformed_modulator(self, workdir, capsys, tmp_path):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        mfile = write(tmp_path / "bad.mod", "1\nx\n")
        assert main(["modkernel", "--graph", gfile, "--modulator", mfile,
                     "--k", "2", "--eta", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError" and "line 2" in err["detail"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"graph": {"vertices": [1], "edges": []}, "k_prime": "x",'
            ' "terminals": [], "requests": [[]]}',
            '{"graph": {"vertices": [1], "edges": []},',
        ],
    )
    def test_linkage_solve_rejects_malformed_instance(self, workdir, capsys, tmp_path, text):
        f = write(tmp_path / "bad.json", text)
        assert main(["linkage", "solve", f]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    @pytest.mark.parametrize("k_prime", ["2.5", "true"])
    def test_linkage_solve_rejects_non_integer_k_prime(self, workdir, capsys, tmp_path, k_prime):
        text = ('{"graph": {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}, "k_prime": '
                + k_prime + ', "terminals": [], "requests": [[]]}')
        f = write(tmp_path / "bad.json", text)
        assert main(["linkage", "solve", f]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError" and "k_prime" in err["detail"]

    @pytest.mark.parametrize(
        "edges, terminals, requests",
        [
            ("[[1.0, 2], [2, 3]]", "[1.0]", "[[1.0]]"),
            ("[[1, 2], [2, 3]]", "[1.0]", "[[1]]"),
            ("[[1, 2], [2, 3]]", "[1]", "[[1.0]]"),
            ("[[true, 2], [2, 3]]", "[1]", "[[1]]"),
            ("[[1, 2], [2, 3]]", "[true]", "[[1]]"),
            ("[[1, 2], [2, 3]]", "[1]", "[[true]]"),
        ],
    )
    def test_linkage_solve_rejects_non_integer_vertex_id(
        self, workdir, capsys, tmp_path, edges, terminals, requests
    ):
        text = ('{"graph": {"vertices": [1, 2, 3], "edges": ' + edges + '}, "terminals": '
                + terminals + ', "requests": ' + requests + ', "k_prime": 3}')
        f = write(tmp_path / "bad.json", text)
        assert main(["linkage", "solve", f]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError" and "vertex" in err["detail"]

    def test_module_entry_point(self, tmp_path):
        g = Graph.from_edges([1, 2], [(1, 2)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        proc = subprocess.run(
            [sys.executable, "-m", "kpath_kernel.cli", "solve", "--graph", gfile, "--k", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["answer"] == "yes"


# Lines of a few tokens. Every number is at most 7, so a header never asks
# for more than 7 vertices.
_tokens = ["p", "s", "td", "b", "c", "root", "#", "0", "1", "2", "3", "7", "-1", "x", "2.5"]
_soup = st.lists(
    st.lists(st.sampled_from(_tokens), max_size=5).map(" ".join),
    max_size=6,
).map("\n".join)

_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 8), st.sampled_from([1.0, 2.5]), st.text("1ab", max_size=2)
)
_json_any = st.recursive(
    _json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text("ab", max_size=2), inner, max_size=2)
    ),
    max_leaves=6,
)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph.from_edges(range(1, n + 1), edges)


@st.composite
def _td_text(draw, g):
    choice = draw(st.sampled_from(["exact", "exact", "exact", "drop-line", "drop-vertex", "soup"]))
    if g.n == 0 or choice == "soup":
        return draw(_soup)
    lines = write_td(compute_decomposition(g)).splitlines()
    if choice == "drop-line":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif choice == "drop-vertex":
        # still parses, but may leave a vertex or an edge in no bag
        i = draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.startswith("b ")]))
        lines[i] = lines[i].rsplit(" ", 1)[0] if len(lines[i].split()) > 2 else lines[i]
    return "\n".join(lines) + "\n"


@st.composite
def _linkage_text(draw, g):
    vs = sorted(g.vertices)
    subset = st.lists(st.sampled_from(vs), unique=True, max_size=3) if vs else st.just([])
    data = {
        "graph": {"vertices": vs, "edges": sorted([u, v] for u, v in g.edges())},
        "k_prime": draw(st.integers(-1, 8)),
        "terminals": draw(subset),
        "requests": draw(st.lists(subset, max_size=3)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(data)), unique=True, max_size=2)):
        data[key] = draw(_json_any)
    text = json.dumps(data)
    return draw(st.sampled_from([text, text, text[: len(text) // 2], draw(_soup)]))


def _keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, err.getvalue())
        assert set(json.loads(lines[0])) == {"error", "detail"}, (argv, lines[0])
    else:
        assert code in (0, 1), (argv, code)
        assert err.getvalue() == "", (argv, err.getvalue())


class TestExitCodeContract:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_every_command_exits_0_1_or_2_with_a_json_error(self, data):
        # mostly well-formed input, so that most calls get past the parsers
        def mostly(good, bad):
            return good if data.draw(st.integers(0, 3)) else data.draw(bad)

        g = data.draw(_small_graphs())
        ids = st.lists(st.integers(1, max(g.n, 1)), max_size=3).map(lambda xs: "\n".join(map(str, xs)))
        texts = {
            "g.gr": mostly(write_graph_text(g), _soup),
            "g.td": data.draw(_td_text(g)),
            "m.mod": mostly(data.draw(ids), _soup),
            "l.json": data.draw(_linkage_text(g)),
        }
        k = str(data.draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 5])))
        eta = str(data.draw(st.integers(-1, 3)))
        method = data.draw(st.sampled_from(["linkage", "bruteforce"]))
        m_override = data.draw(st.sampled_from([[], ["--m-override", str(data.draw(st.integers(-1, 4)))]]))
        with tempfile.TemporaryDirectory() as d:
            path = {name: os.path.join(d, name) for name in texts}
            for name, text in texts.items():
                with open(path[name], "w", encoding="utf-8") as fh:
                    fh.write(text)
            graph = ["--graph", path["g.gr"], "--k", k]
            for argv in (
                ["solve", *graph, "--method", method],
                ["kernelize", *graph],
                ["kernelize", *graph, "--td", path["g.td"]],
                ["kernelize", *graph, "--provider", "trivial"],
                ["kernelize", *graph, "--oracle", "bruteforce"],
                ["modkernel", *graph, "--modulator", path["m.mod"], "--eta", eta, *m_override],
                ["validate-td", "--graph", path["g.gr"], "--td", path["g.td"]],
                ["linkage", "solve", path["l.json"]],
            ):
                _keeps_exit_code_contract(argv)
