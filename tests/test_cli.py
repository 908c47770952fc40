"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "-o", "out.json"])
        assert args.persons == 200 and args.output == "out.json"

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "Q1"])
        assert args.engine == "dataflow" and args.graph is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 0
        assert args.max_concurrency == 4

    def test_negative_deadline_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["query", "Q1", "--deadline", "-1"])
        assert exit_info.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_zero_deadline_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["query", "Q1", "--deadline", "0"])
        assert exit_info.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_non_numeric_deadline_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "Q1", "--deadline", "soon"])
        assert "not a number" in capsys.readouterr().err

    def test_negative_limit_rejected_by_argparse(self, capsys):
        # A negative limit used to slice off the last row and print a
        # wrong "... (N more rows)" footer.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["query", "Q1", "--limit", "-1"])
        assert exit_info.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "Q1", "--kernel", "interpreted"],
            ["query", "Q1", "--backend", "process"],
            ["serve", "--backend", "serial"],
            ["query", "Q1", "--workers", "2"],
            ["query", "Q1", "--retries", "1"],
            ["serve", "--workers", "2"],
        ],
    )
    def test_engine_mode_flags_are_gone(self, argv, capsys):
        # One kernel, run in this process: nothing to select.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFlagContradictions:
    """Contradictory flag combinations fail fast with actionable errors."""

    def test_serve_snapshot_requires_wal(self, capsys):
        assert main(["serve", "--snapshot", "c.rix"]) == 2
        assert "--snapshot requires --wal" in capsys.readouterr().err


class TestExampleAndStats:
    def test_example_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "fig1.json"
        assert main(["example", "-o", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["domain"] == [1, 11]
        assert capsys.readouterr().out.startswith("wrote")

    def test_stats_of_example(self, tmp_path, capsys):
        path = tmp_path / "fig1.json"
        main(["example", "-o", str(path)])
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# nodes" in out and "7" in out

    def test_stats_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/graph.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestGenerate:
    def test_generate_writes_valid_graph(self, tmp_path, capsys):
        path = tmp_path / "campus.json"
        code = main(
            [
                "generate",
                "--persons", "20",
                "--locations", "10",
                "--rooms", "3",
                "--windows", "16",
                "--positivity", "0.2",
                "-o", str(path),
            ]
        )
        assert code == 0
        from repro.model.io import load_json

        graph = load_json(path)
        graph.validate()
        assert "wrote" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "flags",
        [
            ["--persons", "0"],
            ["--windows", "1"],
            ["--positivity", "2"],
            ["--positivity", "-0.5"],
            ["--locations", "0"],
            ["--rooms", "30", "--locations", "10"],
            ["--stream-batches", "0"],
            ["--stream-batches", "-2"],
            ["--stream-initial", "1.5", "--stream-batches", "2"],
        ],
    )
    def test_out_of_range_sizes_are_usage_errors(self, tmp_path, capsys, flags):
        # Each used to end in a raw traceback, or to write a stream of
        # another size than asked for.
        path = tmp_path / "campus.json"
        argv = ["generate", "-o", str(path), *flags]
        if "--stream-batches" in flags:
            argv += ["--stream-output", str(tmp_path / "deltas.jsonl")]
        try:
            code = main(argv)
        except SystemExit as exit_info:  # argparse's usage error
            code = exit_info.code
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestQuery:
    def test_query_paper_name_on_builtin_example(self, capsys):
        assert main(["query", "Q9"]) == 0
        out = capsys.readouterr().out
        assert "n3" in out and "n7" in out

    def test_query_full_match_text(self, capsys):
        assert main(["query", "MATCH (x:Room) ON contact_tracing", "--limit", "0"]) == 0
        out = capsys.readouterr().out
        assert "n4" in out and "n5" in out

    def test_query_with_stats_flag(self, capsys):
        assert main(["query", "Q3", "--stats"]) == 0
        assert "output size 2" in capsys.readouterr().out

    def test_query_reference_engine(self, capsys):
        assert main(["query", "Q6", "--engine", "reference", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "output size 1" in out and "n6" in out

    def test_query_on_generated_graph(self, tmp_path, capsys):
        path = tmp_path / "campus.json"
        main(
            ["generate", "--persons", "20", "--locations", "10", "--rooms", "3",
             "--windows", "16", "--positivity", "0.2", "-o", str(path)]
        )
        capsys.readouterr()
        assert main(["query", "Q2", "--graph", str(path), "--limit", "5"]) == 0
        assert "x_time" in capsys.readouterr().out

    def test_query_explain_prints_plan(self, capsys):
        assert main(["query", "Q11", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "# plan: kernel=columnar\n" in out
        assert "# plan: output=families, " in out and "leaf chain(s)" in out
        assert "# plan: op bind x" in out
        assert "backend" not in out and "chunk" not in out

    def test_query_backend_rejects_unknown_value(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "Q1", "--backend", "rayon"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_query_syntax_error_is_reported(self, capsys):
        assert main(["query", "MATCH (x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_query_unsupported_fragment_reports_error(self, capsys):
        assert main(["query", "MATCH (x)-/(FWD/FWD)*/-(y) ON g"]) == 2
        assert "error" in capsys.readouterr().err


class TestBrokenPipe:
    def test_reader_closing_early_ends_quietly(self, tmp_path):
        """``repro query … | head``: the reader leaves after 3 lines while
        the table is still being written (it is larger than a pipe buffer)."""
        graph = tmp_path / "graph.json"
        assert main(["generate", "--persons", "600", "-o", str(graph)]) == 0
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "query", "Q1", "--graph", str(graph),
             "--limit", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            lines = [proc.stdout.readline() for _ in range(3)]
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert lines[0].split() == [b"x", b"x_time"]
        assert "Traceback" not in stderr and stderr == ""
        assert code == 1
