"""Command-line surface: exit codes, reports, determinism."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gridlink.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_solve_pair(self, capsys):
        code, out, _ = run_cli(capsys, "solve", FIXTURES / "pair.puzzle")
        assert code == 0
        assert out.count("conn ") == 1

    def test_screen_odd_sum_exits_two(self, capsys, tmp_path):
        p = tmp_path / "odd.puzzle"
        p.write_text("k 1\nnode 0 0 1\nnode 1 0 2\n")
        code, out, _ = run_cli(capsys, "screen", p)
        assert code == 2
        assert "condition 2" in out

    def test_screen_clean_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "screen", FIXTURES / "pair.puzzle")
        assert code == 0

    def test_tau_solved_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "tau", FIXTURES / "square4.puzzle")
        assert code == 0

    def test_missing_subcommand_exits_one(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "tau", "no-such-file.puzzle")
        assert code == 1
        assert "error" in err

    def test_parse_error_exits_one(self, capsys, tmp_path):
        p = tmp_path / "bad.puzzle"
        p.write_text("node 0 0 1\n")
        code, _, err = run_cli(capsys, "tau", p)
        assert code == 1
        assert "k <int>" in err

    def test_min_k_found_and_not_found(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "min-k", FIXTURES / "pair.puzzle", "--k-max", 4)
        assert code == 0 and "1" in out
        odd = tmp_path / "odd.puzzle"
        odd.write_text("k 1\nnode 0 0 1\nnode 1 0 2\n")
        code, out, _ = run_cli(capsys, "min-k", odd, "--k-max", 4)
        assert code == 3

    def test_limit_below_one_is_a_usage_error(self, capsys):
        # Rejected before the engine runs, which would solve this puzzle.
        code, out, err = run_cli(capsys, "solve", FIXTURES / "pair.puzzle", "--limit", 0)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--limit" in err

    def test_enumerate_unsolvable_exits_two(self, capsys, tmp_path):
        p = tmp_path / "dead.puzzle"
        p.write_text("k 1\nnode 0 0 2\nnode 1 0 2\n")
        code, _, _ = run_cli(capsys, "enumerate", p, "--limit", 5)
        assert code == 2


class TestByteOrderMark:
    # Editors on Windows may save UTF-8 with a leading byte-order mark.
    def test_screen_reads_a_puzzle_with_a_bom(self, capsys, tmp_path):
        p = tmp_path / "bom.puzzle"
        p.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "pair.puzzle").read_bytes())
        assert run_cli(capsys, "screen", p) == run_cli(capsys, "screen", FIXTURES / "pair.puzzle")

    def test_verify_reads_a_puzzle_and_a_solution_with_a_bom(self, capsys, tmp_path):
        paths = []
        for name in ("line3.puzzle", "line3.solution"):
            paths.append(tmp_path / name)
            paths[-1].write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
        code, out, err = run_cli(capsys, "verify", *paths)
        assert (code, out, err) == (0, "verified\n", "")


class TestSolveMethods:
    def test_auto_reports_engine(self, capsys):
        code, out, _ = run_cli(capsys, "solve", FIXTURES / "square4.puzzle", "--method", "auto")
        assert code == 0
        assert "# engine tau" in out

    def test_brute_matches_tau(self, capsys):
        _, out_tau, _ = run_cli(capsys, "solve", FIXTURES / "square4.puzzle", "--method", "tau")
        _, out_brute, _ = run_cli(capsys, "solve", FIXTURES / "square4.puzzle", "--method", "brute")
        conns = lambda text: [l for l in text.splitlines() if l.startswith("conn")]
        assert conns(out_tau) == conns(out_brute)

    def test_auto_falls_back_to_brute(self, capsys, tmp_path):
        # The tutorial grid stalls under propagation but has solutions.
        code, out, _ = run_cli(capsys, "solve", FIXTURES / "tutorial.puzzle", "--method", "auto")
        assert code == 0
        assert "# engine brute" in out


class TestVerify:
    def test_accepts_solver_output(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "solve", FIXTURES / "line3.puzzle")
        sol = tmp_path / "line3.solution"
        sol.write_text(out)
        code, out, _ = run_cli(capsys, "verify", FIXTURES / "line3.puzzle", sol)
        assert code == 0
        assert "verified" in out

    def test_rejects_perturbed_multiplicity(self, capsys, tmp_path):
        sol = tmp_path / "bad.solution"
        sol.write_text("conn 0 0 1 0 1\nconn 1 0 2 0 2\n")
        code, out, _ = run_cli(capsys, "verify", FIXTURES / "line3.puzzle", sol)
        assert code == 2
        assert "rejected" in out


class TestJsonReports:
    def test_tau_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "tau", FIXTURES / "square4.puzzle", "--json")
        report = json.loads(out)
        assert set(report) >= {"status", "connections", "trace", "violations"}
        assert report["status"] == "solved"
        assert all(len(rec) == 5 for rec in report["connections"])
        assert report["trace"][0]["rule"] == "R4_OmegaStar"

    def test_screen_json_includes_violations(self, capsys, tmp_path):
        p = tmp_path / "odd.puzzle"
        p.write_text("k 1\nnode 0 0 1\nnode 1 0 2\n")
        _, out, _ = run_cli(capsys, "screen", p, "--json")
        report = json.loads(out)
        assert report["status"] == "unsolvable"
        assert any(v["condition"] == 2 and v["witness"] is None for v in report["violations"])

    def test_json_byte_deterministic_in_process(self, capsys):
        _, out1, _ = run_cli(capsys, "tau", FIXTURES / "tutorial.puzzle", "--json")
        _, out2, _ = run_cli(capsys, "tau", FIXTURES / "tutorial.puzzle", "--json")
        assert out1 == out2

    @pytest.mark.parametrize("puzzle", sorted(FIXTURES.glob("*.puzzle")), ids=lambda p: p.stem)
    def test_tau_json_matches_committed_output(self, capsys, puzzle):
        # fixtures/<name>.tau.json pins the report across changes, not just between runs.
        _, out, _ = run_cli(capsys, "tau", puzzle, "--json")
        assert out == puzzle.with_suffix(".tau.json").read_text(encoding="utf-8")


class TestSubprocessInvocation:
    def run(self, *argv, timeout=None):
        return subprocess.run(
            [sys.executable, "-m", "gridlink", *map(str, argv)],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=Path(__file__).resolve().parent.parent,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_gen_round_trips_and_is_deterministic(self, tmp_path):
        args = ["gen", "--seed", 42, "--width", 3, "--height", 3,
                "--density", 0.8, "--k", 2, "--solvable"]
        r1, r2 = self.run(*args), self.run(*args)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout.startswith("k 2\n")

    def test_render_over_capacity_solution_is_an_error(self, tmp_path):
        sol = tmp_path / "over.solution"
        sol.write_text("conn 0 0 1 0 2\n")
        r = self.run("render", FIXTURES / "pair.puzzle", "--solution", sol)
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    def test_render_refuses_a_board_too_large_to_draw(self, tmp_path):
        # Legal, since the format is sparse, but its board has 10^8 cells.
        p = tmp_path / "wide.puzzle"
        p.write_text("k 1\nnode 0 0 1\nnode 99999999 0 1\n")
        r = self.run("render", p, timeout=10)
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    def test_gen_refuses_a_lattice_too_large_to_place(self):
        # 10^10 cells: placing nodes must fail fast, not allocate the lattice.
        r = self.run("gen", "--seed", 0, "--width", 100000, "--height", 100000,
                     "--density", 0.5, "--k", 1, timeout=10)
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    def test_tau_on_a_large_magnitude_square_answers(self, tmp_path):
        # k = K = 5000 on the 2x2 square: each corner has K + 1 words, which
        # the word test must list without walking every pair of counts.
        p = tmp_path / "square.puzzle"
        p.write_text("k 5000\n" + "".join(f"node {x} {y} 5000\n" for x in (0, 1) for y in (0, 1)))
        r = self.run("tau", p, "--json", timeout=10)
        assert r.returncode == 3
        assert json.loads(r.stdout)["status"] == "stalled"

    def test_count_table_csv(self):
        r = self.run("count-table", "--neighbors", 4, "--k-max", 2, "--csv")
        assert r.returncode == 0
        rows = [line.split(",") for line in r.stdout.strip().splitlines()]
        assert rows[2][1 + 7] == "4"

    def test_count_table_refuses_a_k_max_too_large_to_tabulate(self):
        # The table's cost grows about as k_max^4; 10^6 must fail fast.
        r = self.run("count-table", "--neighbors", 4, "--k-max", 1000000, timeout=10)
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr


# Puzzles beside the fixtures, for the verdicts the fixtures do not reach:
# a screen violation (odd magnitude sum) and a grid that passes the screens
# but has no solution, plus a malformed file and an over-capacity record.
EXTRA_FILES = {
    "odd.puzzle": "k 1\nnode 0 0 1\nnode 1 0 2\n",
    "dead.puzzle": "k 1\nnode 0 0 2\nnode 1 0 2\n",
    "bad.puzzle": "node 0 0 1\n",
    "over.solution": "conn 0 0 1 0 2\n",
}


def surface_matrix():
    """Every subcommand and error path, with paths relative to the
    directory the fixtures were copied into."""
    puzzles = [f"fixtures/{p.name}" for p in sorted(FIXTURES.glob("*.puzzle"))]
    puzzles += ["odd.puzzle", "dead.puzzle"]
    for p in puzzles:
        for form in ([], ["--json"]):
            yield ["screen", p, *form]
            yield ["tau", p, *form]
            yield ["solve", p, *form]
            for method in ("tau", "brute", "auto"):
                yield ["solve", p, "--method", method, *form]
            yield ["enumerate", p, "--limit", "3", *form]
            yield ["min-k", p, "--k-max", "3", *form]
        yield ["tau", p, "--trace"]
        yield ["render", p]
    for sol in sorted(FIXTURES.glob("*.solution")):
        p = f"fixtures/{sol.stem}.puzzle"
        for form in ([], ["--json"]):
            yield ["verify", p, f"fixtures/{sol.name}", *form]
        yield ["render", p, "--solution", f"fixtures/{sol.name}"]
    for form in ([], ["--json"]):
        yield ["verify", "fixtures/pair.puzzle", "over.solution", *form]
    yield ["render", "fixtures/pair.puzzle", "--solution", "over.solution"]
    for n in (1, 2, 3, 4):
        for form in ([], ["--csv"]):
            yield ["count-table", "--neighbors", str(n), "--k-max", "3", *form]
    for seed in (0, 7):
        for mode in ([], ["--solvable"]):
            yield ["gen", "--seed", str(seed), "--width", "4", "--height", "3",
                   "--density", "0.7", "--k", "2", *mode]
    # Usage, parse, missing-file and limit errors.
    yield []
    yield ["tau"]
    yield ["enumerate", "fixtures/pair.puzzle"]
    yield ["tau", "no-such-file.puzzle"]
    yield ["verify", "fixtures/pair.puzzle", "no-such-file.solution"]
    yield ["tau", "bad.puzzle", "--json"]
    yield ["solve", "fixtures/pair.puzzle", "--limit", "0"]
    yield ["enumerate", "fixtures/pair.puzzle", "--limit", "0", "--json"]
    yield ["gen", "--seed", "0", "--width", "1", "--height", "1", "--density", "1", "--k", "1"]


# sha256 over (argv, exit code, stdout, stderr) of every surface_matrix()
# invocation, recorded before the report path was shared between commands,
# and again, with the code unchanged, when the stall_8x8 and stall_10x10
# fixtures joined the matrix.
SURFACE_DIGEST = "6e4be046fc55cf9e5e86ad0e5aa2861a91fc750cfd74879c78912bc83c5466f4"


class TestSurfacePinned:
    def test_every_invocation_matches_its_record(self, capsys, tmp_path, monkeypatch):
        shutil.copytree(FIXTURES, tmp_path / "fixtures")
        for name, text in EXTRA_FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for argv in surface_matrix():
            code, out, err = run_cli(capsys, *argv)
            digest.update(json.dumps([argv, code, out, err]).encode("utf-8"))
        assert digest.hexdigest() == SURFACE_DIGEST
