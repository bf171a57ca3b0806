import json
import subprocess
import sys

import pytest

from kpath_kernel.cli import main
from kpath_kernel.graphs import Graph, write_graph_text
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

    def test_module_entry_point(self, tmp_path):
        g = Graph.from_edges([1, 2], [(1, 2)])
        gfile = write(tmp_path / "g.gr", write_graph_text(g))
        proc = subprocess.run(
            [sys.executable, "-m", "kpath_kernel.cli", "solve", "--graph", gfile, "--k", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["answer"] == "yes"
