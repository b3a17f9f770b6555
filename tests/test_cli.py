"""CLI tests (count / enum / generate round trips)."""

import os
import signal
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.cli import main
from repro.count_exact import MAX_CLOSURE_ATOMS


@pytest.fixture()
def smt_file(tmp_path):
    path = tmp_path / "toy.smt2"
    path.write_text("""
        (set-logic QF_BV)
        (declare-fun x () (_ BitVec 6))
        (set-info :projected-vars (x))
        (assert (bvult x #b010100))
    """)
    return path


class TestCount:
    def test_count_xor(self, smt_file, capsys):
        assert main(["count", str(smt_file), "--family", "xor"]) == 0
        output = capsys.readouterr().out
        assert "s exact 20" in output or "s approximate" in output

    def test_count_project_override(self, smt_file, capsys):
        code = main(["count", str(smt_file), "--project", "x"])
        assert code == 0

    def test_count_exact_cc_counter(self, smt_file, capsys):
        assert main(["count", str(smt_file), "--counter",
                     "exact:cc"]) == 0
        output = capsys.readouterr().out
        assert "s exact 20" in output
        assert "counter exact:cc" in output

    def test_count_counter_overrides_family(self, smt_file, capsys):
        assert main(["count", str(smt_file), "--family", "prime",
                     "--counter", "enum"]) == 0
        assert "counter enum" in capsys.readouterr().out

    def test_count_unknown_counter(self, smt_file):
        assert main(["count", str(smt_file), "--counter", "nope"]) == 2

    def test_count_unknown_projection(self, smt_file):
        assert main(["count", str(smt_file), "--project", "nope"]) == 2

    def test_count_missing_projection(self, tmp_path):
        path = tmp_path / "noproj.smt2"
        path.write_text("""
            (declare-fun x () (_ BitVec 4))
            (assert (bvult x #x5))
        """)
        assert main(["count", str(path)]) == 2

    def test_count_error_prints_the_closure_cap(self, tmp_path, capsys):
        # Every atom sits behind its own projection bit, so none is a
        # root unit: the closure has one more open atom than the cap,
        # and exact:cc refuses.
        atoms = MAX_CLOSURE_ATOMS + 1
        lines = ["(set-logic QF_BVLRA)",
                 f"(declare-fun y () (_ BitVec {atoms}))",
                 "(declare-fun r () Real)",
                 "(set-info :projected-vars (y))"]
        lines += [f"(assert (=> (= ((_ extract {i} {i}) y) #b1) "
                  f"(< {i}.0 r)))" for i in range(atoms)]
        path = tmp_path / "over_cap.smt2"
        path.write_text("\n".join(lines) + "\n")
        assert main(["count", str(path), "--counter", "exact:cc"]) == 1
        output = capsys.readouterr().out
        assert "s error" in output
        assert (f"c error exact:cc supports at most {MAX_CLOSURE_ATOMS} "
                f"open LRA atoms") in output
        assert "use the enum counter" in output

    def test_enum(self, smt_file, capsys):
        assert main(["enum", str(smt_file)]) == 0
        assert "s exact 20" in capsys.readouterr().out

    def test_enum_limit(self, smt_file, capsys):
        assert main(["enum", str(smt_file), "--limit", "3"]) == 1
        assert "s limit" in capsys.readouterr().out

    def test_enum_error_prints_the_cause(self, tmp_path, capsys):
        path = tmp_path / "nonlinear.smt2"
        path.write_text("""
            (set-logic QF_BVLRA)
            (declare-fun x () (_ BitVec 4))
            (declare-fun r () Real)
            (set-info :projected-vars (x))
            (assert (< (* r r) 1.0))
        """)
        assert main(["enum", str(path)]) == 1
        output = capsys.readouterr().out
        assert "s error" in output
        assert "c error non-linear real multiplication" in output


class TestEngineFlags:
    def test_count_with_jobs(self, smt_file, capsys):
        assert main(["count", str(smt_file), "--jobs", "2",
                     "--backend", "thread"]) == 0
        assert "s exact 20" in capsys.readouterr().out

    def test_count_cache_round_trip(self, smt_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["count", str(smt_file), "--cache-dir",
                     str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["count", str(smt_file), "--cache-dir",
                     str(cache_dir)]) == 0
        assert "cache hit" in capsys.readouterr().out
        assert (cache_dir / "pact-cache.sqlite").is_file()

    def test_count_cache_that_is_not_a_database(self, smt_file, tmp_path,
                                                capsys):
        path = tmp_path / "bad.sqlite"
        path.write_text("{torn json")
        assert main(["count", str(smt_file), "--cache-dir",
                     str(path)]) == 2
        assert f"error: cannot open store {path}" in capsys.readouterr().err
        assert path.read_text() == "{torn json"

    def test_count_component_store_that_is_not_a_database(
            self, smt_file, tmp_path, capsys):
        path = tmp_path / "bad.sqlite"
        path.write_text("not a database")
        assert main(["count", str(smt_file), "--counter", "exact:cc",
                     "--component-store", str(path)]) == 1
        output = capsys.readouterr().out
        assert "s error" in output
        assert f"c error cannot open store {path}" in output
        assert path.read_text() == "not a database"

    def test_count_error_under_stats_prints_the_detail_once(
            self, smt_file, tmp_path, capsys):
        path = tmp_path / "bad.sqlite"
        path.write_text("not a database")
        assert main(["count", str(smt_file), "--counter", "exact:cc",
                     "--component-store", str(path), "--stats"]) == 1
        output = capsys.readouterr().out
        assert output.count(f"cannot open store {path}") == 1
        assert "c detail" not in output

    def test_one_file_holds_results_and_components(self, smt_file,
                                                   tmp_path, capsys):
        path = str(tmp_path / "shared.sqlite")
        argv = ["count", str(smt_file), "--counter", "exact:cc",
                "--cache-dir", path, "--component-store", path]
        assert main(argv) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert main(argv) == 0
        assert "c cache hit" in capsys.readouterr().out
        with sqlite3.connect(path) as conn:
            (components,) = conn.execute(
                "SELECT COUNT(*) FROM components").fetchone()
        assert components > 0

    def test_serve_cache_dir_opens_pact_cache_sqlite(self, tmp_path,
                                                     monkeypatch):
        opened = []

        async def serve_main(session, config):
            opened.append(session.cache.path)
            return 0

        monkeypatch.setattr(cli, "_serve_main", serve_main)
        assert main(["serve", "--cache-dir", str(tmp_path)]) == 0
        assert main(["serve", "--store", "sqlite", "--cache-dir",
                     str(tmp_path / "x.db")]) == 0
        assert opened == [tmp_path / "pact-cache.sqlite",
                          tmp_path / "x.db"]

    def test_serve_store_accepts_only_sqlite(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--store", "json"])
        assert excinfo.value.code == 2

    def test_count_no_cache_ignores_dir(self, smt_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main(["count", str(smt_file), "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main(["count", str(smt_file), "--cache-dir",
                     str(cache_dir), "--no-cache"]) == 0
        assert "cache hit" not in capsys.readouterr().out


class TestInterrupt:
    def test_an_interrupt_ends_any_command_with_exit_130(
            self, smt_file, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_count", interrupted)
        assert main(["count", str(smt_file)]) == 130
        assert capsys.readouterr().out == "c interrupted\n"

    def test_sigterm_during_run_keeps_the_finished_slots(self, tmp_path):
        """SIGTERM after the first slot: no partial summary, exit 130,
        and that slot's row is in the store for the next run."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        run = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "--preset", "smoke",
             "--verbose", "--cache-dir", str(tmp_path)],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        watchdog = threading.Timer(300, run.kill)
        watchdog.start()
        try:
            lines = []
            for line in run.stdout:
                lines.append(line)
                if line.startswith("  ["):
                    run.send_signal(signal.SIGTERM)
                    break
            lines.extend(run.stdout)
            assert run.wait() == 130, "".join(lines)
        finally:
            watchdog.cancel()
        output = "".join(lines)
        assert "c interrupted" in output
        assert "Run summary" not in output
        with sqlite3.connect(tmp_path / "pact-cache.sqlite") as conn:
            (rows,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
        assert rows >= 1


class TestPortfolio:
    def test_portfolio_first_counter_wins(self, smt_file, capsys):
        code = main(["portfolio", str(smt_file), "--counters",
                     "pact:xor,pact:prime,cdm", "--seed", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "c winner pact:xor" in output
        assert "pact:prime" in output and "cdm" in output
        assert "cancelled" in output

    def test_portfolio_deterministic_under_fixed_seed(self, smt_file,
                                                      capsys):
        main(["portfolio", str(smt_file), "--counters",
              "pact:xor,pact:prime,cdm", "--seed", "3"])
        first = capsys.readouterr().out
        main(["portfolio", str(smt_file), "--counters",
              "pact:xor,pact:prime,cdm", "--seed", "3"])
        second = capsys.readouterr().out
        # Identical winner and estimates; only timings may differ
        # (the second run is faster: the compile memo is warm).
        def _stable(text):
            return [line.split("elapsed=")[0].split("s  ")[-1]
                    for line in text.splitlines()]
        assert first.splitlines()[0] == second.splitlines()[0]
        assert _stable(first) == _stable(second)

    def test_portfolio_legacy_aliases_accepted(self, smt_file, capsys):
        assert main(["portfolio", str(smt_file), "--counters",
                     "pact_xor,cdm"]) == 0
        assert "c winner pact:xor" in capsys.readouterr().out

    def test_portfolio_unknown_counter_fails(self, smt_file, capsys):
        assert main(["portfolio", str(smt_file), "--counters",
                     "pact:md5"]) == 2
        assert "unknown counter" in capsys.readouterr().err

    def test_process_pool_portfolio_stops_its_losers(self, tmp_path):
        """pact:xor wins in about a second; cdm, which would count on
        for minutes in its worker process, is stopped, so the command
        exits.  Capped at 60 s, after which its process group dies."""
        from repro.benchgen.generators import GENERATORS
        path = tmp_path / "guard_12w.smt2"
        path.write_text(GENERATORS["QF_BVFP"](5, width=12).to_smtlib())
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        race = subprocess.Popen(
            [sys.executable, "-m", "repro", "portfolio", str(path),
             "--counters", "pact:xor,cdm", "--jobs", "2",
             "--backend", "process"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True)
        try:
            output, _ = race.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(race.pid, signal.SIGKILL)
            output, _ = race.communicate()
            pytest.fail(f"the portfolio ran past 60 s:\n{output}")
        assert race.returncode == 0, output
        assert "c winner pact:xor" in output
        (cdm,) = [line for line in output.splitlines()
                  if line.split()[1:2] == ["cdm"]]
        assert "cancelled" in cdm


class TestGenerate:
    def test_generate_writes_files(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["generate", "--logic", "QF_UFBV", "--out",
                     str(out), "--count", "2", "--width", "9"])
        assert code == 0
        files = sorted(out.glob("*.smt2"))
        assert len(files) == 2

    def test_generated_file_counts(self, tmp_path, capsys):
        out = tmp_path / "bench"
        main(["generate", "--logic", "QF_BVFP", "--out", str(out),
              "--count", "1", "--width", "8", "--seed", "5"])
        capsys.readouterr()
        smt2 = next(out.glob("*.smt2"))
        assert main(["enum", str(smt2)]) == 0

    def test_unknown_logic(self, tmp_path):
        assert main(["generate", "--logic", "QF_LIA", "--out",
                     str(tmp_path)]) == 2


class TestCompile:
    def test_compile_stats_and_dimacs(self, smt_file, capsys):
        assert main(["compile", str(smt_file)]) == 0
        output = capsys.readouterr().out
        assert "c compiled" in output
        assert "c simplify:" in output
        assert "c p show" in output
        assert "p cnf" in output

    def test_compile_out_file(self, smt_file, tmp_path, capsys):
        out = tmp_path / "toy.cnf"
        assert main(["compile", str(smt_file), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("c ")
        from repro.sat.dimacs import parse_dimacs_document
        document = parse_dimacs_document(text)
        assert document.show  # projection exported for external counters

    def test_compile_quiet_prints_stats_only(self, smt_file, capsys):
        assert main(["compile", str(smt_file), "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "c compiled" in output
        assert "c simplify:" in output
        assert "p cnf" not in output  # --quiet suppresses the DIMACS
