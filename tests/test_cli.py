import gc
import json
import shutil
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from click.testing import CliRunner

from lexiforge.cli import main
from lexiforge.embedding import DeterministicEmbedder
from lexiforge.ingestion import parse_dictionary, parse_failures

from conftest import DATA_DIR


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path):
    """Copy the committed data files into a scratch directory."""
    for name in (
        "five_lemmas.txt",
        "stub_replies.json",
        "stub_config.ini",
        "eval_config.ini",
        "fixture20_generated.jsonl",
        "fixture20_gold.jsonl",
        "clean_generated.jsonl",
        "clean_gold.jsonl",
        "planted_generated.jsonl",
        "planted_gold.jsonl",
        "planted_failures.jsonl",
    ):
        shutil.copy(DATA_DIR / name, tmp_path / name)
    return tmp_path


def run_generate(runner, ws, extra=()):
    return runner.invoke(
        main,
        [
            "generate",
            "--lemmas", str(ws / "five_lemmas.txt"),
            "--config", str(ws / "stub_config.ini"),
            "--out", str(ws / "generated.jsonl"),
            "--failures", str(ws / "failures.jsonl"),
            *extra,
        ],
    )


def run_evaluate(runner, ws, out="eval", generated="fixture20_generated.jsonl",
                 gold="fixture20_gold.jsonl", extra=()):
    return runner.invoke(
        main,
        [
            "evaluate",
            "--generated", str(ws / generated),
            "--gold", str(ws / gold),
            "--embedder", "deterministic",
            "--config", str(ws / "eval_config.ini"),
            "--out", str(ws / out),
            *extra,
        ],
    )


class TestGenerate:
    def test_stub_run_counts_and_exit(self, runner, workspace):
        result = run_generate(runner, workspace)
        assert result.exit_code == 0, result.output
        with open(workspace / "generated.jsonl", encoding="utf-8") as fh:
            dictionary = parse_dictionary(fh)
        with open(workspace / "failures.jsonl", encoding="utf-8") as fh:
            failures = parse_failures(fh)
        assert len(dictionary) == 4
        assert len(failures) == 1
        assert failures[0].lemma == "jugar" and failures[0].reason.value == "refusal"
        assert "defined 4 of 5" in result.output

    def test_audit_writes_per_batch_files(self, runner, workspace):
        result = run_generate(runner, workspace, extra=["--audit", str(workspace / "audit")])
        assert result.exit_code == 0
        # 5 lemmas at batch_size 2 -> 3 batches
        assert len(list((workspace / "audit").iterdir())) == 3

    def test_missing_lemmas_file_exit_3(self, runner, workspace):
        result = runner.invoke(
            main,
            [
                "generate",
                "--lemmas", str(workspace / "no_such_file.txt"),
                "--config", str(workspace / "stub_config.ini"),
                "--out", str(workspace / "g.jsonl"),
                "--failures", str(workspace / "f.jsonl"),
            ],
        )
        assert result.exit_code == 3

    def test_bad_config_exit_2(self, runner, workspace):
        (workspace / "bad.ini").write_text("[provider]\nkind = stub\n")  # stub without replies
        result = runner.invoke(
            main,
            [
                "generate",
                "--lemmas", str(workspace / "five_lemmas.txt"),
                "--config", str(workspace / "bad.ini"),
                "--out", str(workspace / "g.jsonl"),
                "--failures", str(workspace / "f.jsonl"),
            ],
        )
        assert result.exit_code == 2

    def test_endpoint_that_cannot_be_sent_to_records_provider_errors(self, runner, workspace):
        (workspace / "bad_endpoint.ini").write_text(
            "[provider]\nendpoint = chat-service/v1/chat/completions\n"
            "[generation]\nbatch_size = 2\nmax_retries = 1\nretry_backoff = 0.0\n",
            encoding="utf-8",
        )
        result = runner.invoke(
            main,
            [
                "generate",
                "--lemmas", str(workspace / "five_lemmas.txt"),
                "--config", str(workspace / "bad_endpoint.ini"),
                "--out", str(workspace / "g.jsonl"),
                "--failures", str(workspace / "f.jsonl"),
            ],
        )
        assert result.exit_code == 0, result.output
        with open(workspace / "f.jsonl", encoding="utf-8") as fh:
            failures = parse_failures(fh)
        assert len(failures) == 5 and {f.reason.value for f in failures} == {"provider_error"}
        assert "in 3 batches, 6 requests; retries 3" in result.output

    def test_config_from_environment(self, runner, workspace, monkeypatch):
        monkeypatch.setenv("LEXIFORGE_CONFIG", str(workspace / "stub_config.ini"))
        result = runner.invoke(
            main,
            [
                "generate",
                "--lemmas", str(workspace / "five_lemmas.txt"),
                "--out", str(workspace / "g.jsonl"),
                "--failures", str(workspace / "f.jsonl"),
            ],
        )
        assert result.exit_code == 0, result.output


class ZeroVectorHandler(BaseHTTPRequestHandler):
    """Embedding service that answers every text with four copies of ``value``: an all-zero vector by default."""

    value: object = 0.0

    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        data = json.dumps({"vectors": [[self.value] * 4 for _ in texts], "dimension": 4}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class KeepAliveEmbeddingHandler(BaseHTTPRequestHandler):
    """Embedding service that keeps each connection open, as a real HTTP/1.1 server does."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        vectors = [vector.tolist() for vector in DeterministicEmbedder(16).embed_batch(texts)]
        data = json.dumps({"vectors": vectors, "dimension": 16}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class TestEvaluate:
    def test_outputs_written(self, runner, workspace):
        result = run_evaluate(runner, workspace)
        assert result.exit_code == 0, result.output
        out = workspace / "eval"
        for name in ("report.json", "alignments.jsonl", "findings.jsonl", "polysemy_pairs.jsonl"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["join_size"] == 20
        assert report["confusion"] == {"mono_mono": 11, "mono_poly": 1, "poly_mono": 5, "poly_poly": 3}

    def test_self_evaluation_is_perfect(self, runner, workspace):
        result = run_evaluate(runner, workspace, out="self", generated="fixture20_gold.jsonl")
        assert result.exit_code == 0, result.output
        report = json.loads((workspace / "self" / "report.json").read_text(encoding="utf-8"))
        confusion = report["confusion"]
        assert confusion["mono_poly"] == confusion["poly_mono"] == 0
        assert confusion["mono_mono"] == 12 and confusion["poly_poly"] == 8
        for positive in ("monosemy", "polysemy"):
            metrics = report["class_metrics"][positive]
            assert metrics["precision"] == metrics["recall"] == metrics["f1"] == 1.0
        alignments = (workspace / "self" / "alignments.jsonl").read_text(encoding="utf-8").splitlines()
        for line in alignments:
            assert abs(json.loads(line)["best_score"] - 1.0) < 1e-9

    def test_rerun_is_byte_identical(self, runner, workspace):
        assert run_evaluate(runner, workspace, out="run1").exit_code == 0
        assert run_evaluate(runner, workspace, out="run2").exit_code == 0
        for name in ("report.json", "alignments.jsonl", "findings.jsonl", "polysemy_pairs.jsonl"):
            first = (workspace / "run1" / name).read_bytes()
            second = (workspace / "run2" / name).read_bytes()
            assert first == second, name

    def test_failures_feed_refusal_findings(self, runner, workspace):
        result = run_evaluate(
            runner,
            workspace,
            out="planted_eval",
            generated="planted_generated.jsonl",
            gold="planted_gold.jsonl",
            extra=["--failures", str(workspace / "planted_failures.jsonl")],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((workspace / "planted_eval" / "report.json").read_text(encoding="utf-8"))
        assert report["error_summary"]["refusal"] == 1

    def test_failure_log_with_non_string_lemma_exit_3(self, runner, workspace):
        record = {"lemma": 5, "pos": None, "reason": "refusal", "detail": ""}
        (workspace / "bad_failures.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        result = run_evaluate(runner, workspace, extra=["--failures", str(workspace / "bad_failures.jsonl")])
        assert result.exit_code == 3, result.output
        assert "field lemma" in result.output

    def test_unreadable_generated_exit_3(self, runner, workspace):
        result = run_evaluate(runner, workspace, generated="missing.jsonl")
        assert result.exit_code == 3

    def test_unwritable_output_exit_4(self, runner, workspace):
        blocker = workspace / "blocker"
        blocker.write_text("a plain file, not a directory")
        result = run_evaluate(runner, workspace, out="blocker/eval")
        assert result.exit_code == 4

    def test_unreachable_remote_service_exit_5(self, runner, workspace):
        (workspace / "remote.ini").write_text(
            "[embedding]\n"
            "remote_url = http://127.0.0.1:1/embed\n"
            "remote_max_retries = 0\n"
            "remote_retry_backoff = 0.0\n"
            "remote_timeout = 0.2\n",
            encoding="utf-8",
        )
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--generated", str(workspace / "fixture20_generated.jsonl"),
                "--gold", str(workspace / "fixture20_gold.jsonl"),
                "--embedder", "remote",
                "--config", str(workspace / "remote.ini"),
                "--out", str(workspace / "x"),
            ],
        )
        assert result.exit_code == 5

    @pytest.mark.parametrize("url", ["embed-service/embed", "http://[::1"])
    def test_url_that_cannot_be_sent_to_exit_5(self, runner, workspace, url):
        (workspace / "remote.ini").write_text(
            f"[embedding]\nremote_url = {url}\nremote_max_retries = 0\n", encoding="utf-8"
        )
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--generated", str(workspace / "fixture20_generated.jsonl"),
                "--gold", str(workspace / "fixture20_gold.jsonl"),
                "--embedder", "remote",
                "--config", str(workspace / "remote.ini"),
                "--out", str(workspace / "x"),
            ],
        )
        assert result.exit_code == 5, result.output
        assert "unreachable" in result.output

    @staticmethod
    def evaluate_against(runner, workspace, handler):
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            (workspace / "remote.ini").write_text(
                f"[embedding]\nremote_url = http://127.0.0.1:{server.server_address[1]}/embed\n", encoding="utf-8"
            )
            return runner.invoke(
                main,
                [
                    "evaluate",
                    "--generated", str(workspace / "fixture20_generated.jsonl"),
                    "--gold", str(workspace / "fixture20_gold.jsonl"),
                    "--embedder", "remote",
                    "--config", str(workspace / "remote.ini"),
                    "--out", str(workspace / "x"),
                ],
            )
        finally:
            server.shutdown()
            server.server_close()

    def test_zero_vector_from_service_exit_5(self, runner, workspace):
        result = self.evaluate_against(runner, workspace, ZeroVectorHandler)
        assert result.exit_code == 5, result.output
        assert "all-zero" in result.output
        assert not (workspace / "x" / "report.json").exists()

    @pytest.mark.parametrize(
        ("value", "message"), [("x", "malformed"), (float("nan"), "non-finite"), (float("inf"), "non-finite")]
    )
    def test_bad_vector_value_from_service_exit_5(self, runner, workspace, value, message):
        handler = type("BadVectorHandler", (ZeroVectorHandler,), {"value": value})
        result = self.evaluate_against(runner, workspace, handler)
        assert result.exit_code == 5, result.output
        assert message in result.output
        assert not (workspace / "x" / "report.json").exists()

    def test_remote_embedder_with_cache_closes_what_it_opens(self, runner, workspace):
        server = ThreadingHTTPServer(("127.0.0.1", 0), KeepAliveEmbeddingHandler)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            (workspace / "remote.ini").write_text(
                f"[embedding]\nremote_url = http://127.0.0.1:{server.server_address[1]}/embed\n"
                f"cache = {workspace / 'vectors.jsonl'}\n",
                encoding="utf-8",
            )
            gc.collect()  # what earlier tests left behind warns here, not below
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run_evaluate(runner, workspace, extra=["--embedder", "remote", "--config", str(workspace / "remote.ini")])
                gc.collect()
        finally:
            server.shutdown()
            server.server_close()
        assert result.exit_code == 0, result.output
        assert (workspace / "vectors.jsonl").stat().st_size > 0
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_remote_embedder_unconfigured_exit_2(self, runner, workspace):
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--generated", str(workspace / "fixture20_generated.jsonl"),
                "--gold", str(workspace / "fixture20_gold.jsonl"),
                "--embedder", "remote",
                "--config", str(workspace / "eval_config.ini"),
                "--out", str(workspace / "x"),
            ],
        )
        assert result.exit_code == 2


class TestReportCommand:
    def test_renders_tables(self, runner, workspace):
        run_evaluate(runner, workspace)
        result = runner.invoke(
            main,
            ["report", "--eval", str(workspace / "eval"), "--format", "csv", "--out", str(workspace / "eval")],
        )
        assert result.exit_code == 0, result.output
        tables = workspace / "eval" / "tables"
        assert sorted(p.name for p in tables.iterdir()) == [
            "figure1.csv",
            "table1.csv",
            "table2.csv",
            "table3.csv",
            "table4.csv",
            "table5.csv",
        ]

    def test_accepts_report_path_directly(self, runner, workspace):
        run_evaluate(runner, workspace)
        result = runner.invoke(
            main,
            [
                "report",
                "--eval", str(workspace / "eval" / "report.json"),
                "--format", "json",
                "--out", str(workspace / "rendered"),
            ],
        )
        assert result.exit_code == 0
        assert (workspace / "rendered" / "tables" / "tables.json").exists()

    def test_missing_report_exit_3(self, runner, workspace):
        result = runner.invoke(
            main, ["report", "--eval", str(workspace / "nowhere"), "--format", "csv", "--out", str(workspace)]
        )
        assert result.exit_code == 3

    def test_unknown_format_exit_2(self, runner, workspace):
        run_evaluate(runner, workspace)
        result = runner.invoke(
            main, ["report", "--eval", str(workspace / "eval"), "--format", "xlsx", "--out", str(workspace)]
        )
        assert result.exit_code == 2


class TestErrorsCommand:
    @pytest.fixture
    def planted_eval(self, runner, workspace):
        run_evaluate(
            runner,
            workspace,
            out="planted_eval",
            generated="planted_generated.jsonl",
            gold="planted_gold.jsonl",
            extra=["--failures", str(workspace / "planted_failures.jsonl")],
        )
        return workspace / "planted_eval"

    def test_lists_category_with_definitions(self, runner, planted_eval):
        result = runner.invoke(
            main, ["errors", "--eval", str(planted_eval), "--category", "hallucination_candidate"]
        )
        assert result.exit_code == 0, result.output
        assert "4 finding(s)" in result.output
        assert "zanfoña" in result.output
        assert "generated:" in result.output and "gold:" in result.output

    def test_overcorrection_names_neighbor(self, runner, planted_eval):
        result = runner.invoke(main, ["errors", "--eval", str(planted_eval), "--category", "overcorrection"])
        assert "destaque" in result.output

    def test_refusal_passthrough_listing(self, runner, planted_eval):
        result = runner.invoke(main, ["errors", "--eval", str(planted_eval), "--category", "refusal"])
        assert result.exit_code == 0
        assert "jaharrar" in result.output

    def test_limit_zero_prints_count_only(self, runner, planted_eval):
        result = runner.invoke(
            main,
            ["errors", "--eval", str(planted_eval), "--category", "hallucination_candidate", "--limit", "0"],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "4 finding(s) in category hallucination_candidate"

    def test_unknown_category_exit_2_lists_valid(self, runner, planted_eval):
        result = runner.invoke(main, ["errors", "--eval", str(planted_eval), "--category", "gremlins"])
        assert result.exit_code == 2
        assert "hallucination_candidate" in result.output


class TestHelp:
    def test_subcommands_documented(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for sub in ("generate", "evaluate", "report", "errors"):
            assert sub in result.output

