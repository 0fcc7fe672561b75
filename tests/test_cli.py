"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.dataset import IncompleteDataset


@pytest.fixture()
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    ds = IncompleteDataset(
        [[1, 2, None], [2, None, 1], [3, 3, 3], [None, 1, 2]],
        ids=["a", "b", "c", "d"],
        dim_names=["x", "y", "z"],
    )
    ds.to_csv(path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro" in capsys.readouterr().out


class TestQuery:
    def test_basic_query(self, sample_csv, capsys):
        code = main(["query", str(sample_csv), "--k", "2", "--id-column", "id"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank" in out and "score" in out
        assert "big:" in out  # stats summary line

    def test_all_algorithms(self, sample_csv, capsys):
        from repro import available_algorithms

        for algorithm in available_algorithms():
            code = main(
                ["query", str(sample_csv), "--k", "1", "--id-column", "id",
                 "--algorithm", algorithm]
            )
            assert code == 0
        capsys.readouterr()

    def test_per_dimension_directions(self, sample_csv, capsys):
        code = main(
            ["query", str(sample_csv), "--k", "1", "--id-column", "id",
             "--directions", "max,max,max"]
        )
        assert code == 0
        capsys.readouterr()

    def test_sweep_k_batches_a_ladder(self, sample_csv, capsys):
        code = main(
            ["query", str(sample_csv), "--sweep-k", "2,3", "--id-column", "id",
             "--algorithm", "naive"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "k=2" in out and "k=3" in out
        assert "engine:" in out  # session cache summary

    def test_sweep_k_matches_single_queries(self, sample_csv, capsys):
        from repro import top_k_dominating

        code = main(["query", str(sample_csv), "--sweep-k", "1,2", "--id-column", "id"])
        out = capsys.readouterr().out
        assert code == 0
        dataset = IncompleteDataset.from_csv(sample_csv, id_column="id")
        for k in (1, 2):
            expected = top_k_dominating(dataset, k, algorithm="auto")
            for oid, score in zip(expected.ids, expected.scores):
                assert f"{oid}({score})" in out

    def test_sweep_k_rejects_bad_values(self, sample_csv, capsys):
        assert main(["query", str(sample_csv), "--sweep-k", "two", "--id-column", "id"]) == 2
        assert main(["query", str(sample_csv), "--sweep-k", ",", "--id-column", "id"]) == 2
        capsys.readouterr()

    def test_workers_requires_sweep(self, sample_csv, capsys):
        code = main(
            ["query", str(sample_csv), "--k", "2", "--workers", "2", "--id-column", "id"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--sweep-k" in captured.err

    def test_missing_file_is_reported(self, capsys):
        code = main(["query", "/does/not/exist.csv", "--k", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, extra, message",
        [
            ("id,a,b\nx,1,2\ny,3,oops\n", [], "'oops' at line 3, column 'b'"),
            ("id,a,b\nx,1,2\ny,3\n", [], "line 3 has 2 cells"),
            ("a,b\n1,2\n", ["--id-column", "id"], "not in header"),
        ],
    )
    def test_bad_input_exits_2_in_one_line(self, tmp_path, capsys, text, extra, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["query", str(path), "--k", "1", *extra]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    def test_invalid_k_is_reported(self, sample_csv, capsys):
        code = main(["query", str(sample_csv), "--k", "0", "--id-column", "id"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestInfo:
    def test_info_output(self, sample_csv, capsys):
        code = main(["info", str(sample_csv), "--id-column", "id"])
        out = capsys.readouterr().out
        assert code == 0
        assert "objects:       4" in out
        assert "dimensions:    3" in out
        assert "x" in out and "z" in out


class TestGenerate:
    def test_generate_then_query_roundtrip(self, tmp_path, capsys):
        out_csv = tmp_path / "ind.csv"
        code = main(
            ["generate", "ind", "--n", "120", "--dim", "4", "--out", str(out_csv)]
        )
        assert code == 0
        assert out_csv.exists()
        capsys.readouterr()

        code = main(["query", str(out_csv), "--k", "3", "--id-column", "id"])
        assert code == 0
        assert "rank" in capsys.readouterr().out

    def test_generated_id_column_is_detected(self, tmp_path, capsys):
        out_csv = tmp_path / "ind.csv"
        assert main(["generate", "ind", "--n", "120", "--dim", "4", "--out", str(out_csv)]) == 0
        capsys.readouterr()

        assert main(["query", str(out_csv), "--k", "3"]) == 0
        detected = capsys.readouterr().out.split("\n\n")[0]  # the answer table
        assert main(["query", str(out_csv), "--k", "3", "--id-column", "id"]) == 0
        assert capsys.readouterr().out.split("\n\n")[0] == detected

        assert main(["info", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "objects:       120" in out
        assert "dimensions:    4" in out

    def test_explicit_id_column_wins_over_detection(self, tmp_path, capsys):
        path = tmp_path / "named.csv"
        path.write_text("id,key,a\n1,x,5\n2,y,6\n")
        assert main(["info", str(path), "--id-column", "key"]) == 0
        assert "dimensions:    2" in capsys.readouterr().out

    def test_generate_real_simulator(self, tmp_path, capsys):
        out_csv = tmp_path / "nba.csv"
        code = main(["generate", "nba", "--n", "200", "--out", str(out_csv)])
        assert code == 0
        assert "nba" in capsys.readouterr().out


class TestCompress:
    def test_reports_all_three_codecs(self, sample_csv, capsys):
        code = main(["compress", str(sample_csv), "--id-column", "id"])
        out = capsys.readouterr().out
        assert code == 0
        for scheme in ("wah", "concise", "roaring"):
            assert scheme in out
        assert "ratio" in out

    def test_scheme_subset(self, sample_csv, capsys):
        code = main(
            ["compress", str(sample_csv), "--id-column", "id", "--schemes", "wah"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "wah" in out and "concise" not in out

    def test_unknown_scheme_reported(self, sample_csv, capsys):
        code = main(
            ["compress", str(sample_csv), "--id-column", "id", "--schemes", "zip"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExperimentCommand:
    def test_unknown_experiment(self, capsys):
        code = main(["experiment", "--experiment", "fig99"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.slow
    def test_single_experiment_runs(self, capsys):
        code = main(["experiment", "--experiment", "table3", "--scale", "0.004"])
        assert code == 0
        assert "table3" in capsys.readouterr().out


class TestStoreFlag:
    def test_sweep_store_round_trip(self, sample_csv, tmp_path, capsys):
        store_dir = tmp_path / "cache"
        argv = [
            "query", str(sample_csv), "--sweep-k", "2,3", "--id-column", "id",
            "--algorithm", "naive", "--store", str(store_dir),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "store 0/2 warm (2 written)" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "store 2/2 warm (0 written)" in warm
        cold_answers = [line for line in cold.splitlines() if line.startswith("k=")]
        warm_answers = [line for line in warm.splitlines() if line.startswith("k=")]
        assert cold_answers == warm_answers

    def test_single_query_store_round_trip(self, sample_csv, tmp_path, capsys):
        store_dir = tmp_path / "cache"
        argv = [
            "query", str(sample_csv), "--k", "2", "--id-column", "id",
            "--store", str(store_dir),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "store 1/1 warm" in capsys.readouterr().out

    def test_single_query_honours_env_var(self, sample_csv, tmp_path, capsys, monkeypatch):
        # --store's help promises $REPRO_CACHE_DIR as the default; the
        # single-query path must honour it like the sweep path does.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        argv = ["query", str(sample_csv), "--k", "2", "--id-column", "id"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "store 1/1 warm" in capsys.readouterr().out


class TestCacheCommand:
    def _populate(self, sample_csv, store_dir):
        assert main(
            ["query", str(sample_csv), "--sweep-k", "2,3", "--id-column", "id",
             "--store", str(store_dir)]
        ) == 0

    def test_stats_lists_entries(self, sample_csv, tmp_path, capsys):
        store_dir = tmp_path / "cache"
        self._populate(sample_csv, store_dir)
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 result entries" in out
        assert "planner calibration present" in out

    def test_clear_empties_the_store(self, sample_csv, tmp_path, capsys):
        store_dir = tmp_path / "cache"
        self._populate(sample_csv, store_dir)
        capsys.readouterr()
        assert main(["cache", "clear", "--dir", str(store_dir)]) == 0
        assert "cleared 2 result entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", str(store_dir)]) == 0
        assert "0 result entries" in capsys.readouterr().out

    def test_path_prints_directory(self, tmp_path, capsys):
        store_dir = tmp_path / "cache"
        assert main(["cache", "path", "--dir", str(store_dir)]) == 0
        assert str(store_dir) in capsys.readouterr().out

    def test_dir_falls_back_to_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main(["cache", "path"]) == 0
        assert "env-cache" in capsys.readouterr().out

    def test_missing_dir_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err


class TestPartitionsFlag:
    def test_partitioned_query_matches_monolithic(self, sample_csv, capsys):
        code = main(["query", str(sample_csv), "--k", "2", "--id-column", "id",
                     "--algorithm", "naive"])
        mono = capsys.readouterr().out
        assert code == 0
        code = main(["query", str(sample_csv), "--k", "2", "--id-column", "id",
                     "--partitions", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "partitions=2" in out
        assert "survival" in out
        # Same ranking table rows, bit for bit.
        mono_rows = [line for line in mono.splitlines() if line.startswith(("1", "2"))]
        part_rows = [line for line in out.splitlines() if line.startswith(("1", "2"))]
        assert mono_rows == part_rows

    def test_partitions_auto_accepted(self, sample_csv, capsys):
        code = main(["query", str(sample_csv), "--k", "1", "--id-column", "id",
                     "--partitions", "auto", "--explain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "partition plan:" in out

    def test_partitions_rejects_garbage(self, sample_csv, capsys):
        code = main(["query", str(sample_csv), "--k", "1", "--id-column", "id",
                     "--partitions", "lots"])
        assert code == 2
        capsys.readouterr()

    def test_partitions_incompatible_with_sweep(self, sample_csv, capsys):
        code = main(["query", str(sample_csv), "--sweep-k", "2,3", "--id-column", "id",
                     "--partitions", "2"])
        assert code == 2
        capsys.readouterr()


class TestTraceFlag:
    @pytest.fixture(autouse=True)
    def _restore_tracing(self, monkeypatch):
        """``--trace`` flips process-wide state (env var + module flag by
        design, like ``--backend``); put both back after each test."""
        import os

        from repro.engine import telemetry

        monkeypatch.setitem(os.environ, "REPRO_TRACE", os.environ.get("REPRO_TRACE", ""))
        was = telemetry.enabled()
        yield
        telemetry.set_enabled(was)
        telemetry.reset()

    def test_trace_exports_chrome_json(self, sample_csv, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        code = main(["query", str(sample_csv), "--k", "2", "--id-column", "id",
                     "--trace", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace: wrote" in out
        payload = json.loads(out_path.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert "engine.query" in names

    def test_trace_jsonl_feeds_trace_summary(self, sample_csv, tmp_path, capsys):
        log_path = tmp_path / "trace.jsonl"
        code = main(["query", str(sample_csv), "--k", "2", "--id-column", "id",
                     "--partitions", "2", "--trace", str(log_path)])
        assert code == 0
        capsys.readouterr()
        code = main(["trace", "summary", str(log_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "partition.phase1" in out
        assert "attributed to named phases" in out

    def test_trace_dash_prints_summary_inline(self, sample_csv, capsys):
        code = main(["query", str(sample_csv), "--k", "2", "--id-column", "id",
                     "--trace", "-"])
        out = capsys.readouterr().out
        assert code == 0
        assert "attributed to named phases" in out

    def test_trace_summary_missing_file_is_an_error(self, tmp_path, capsys):
        code = main(["trace", "summary", str(tmp_path / "absent.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err
