import gc
import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys
import warnings
from contextlib import closing
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest
from click.testing import CliRunner

import lexiforge
from lexiforge.cli import main
from lexiforge.embedding import CachingEmbedder, DeterministicEmbedder
from lexiforge.exceptions import ServiceError
from lexiforge.ingestion import parse_dictionary, parse_failures, write_dictionary

from conftest import DATA_DIR, http_server, make_dictionary, make_entry


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


def child_env():
    """The environment of a child process that imports the lexiforge these tests import."""
    source = str(Path(lexiforge.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}


def snapshot(directory):
    """The bytes of each file in *directory*, by name."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def tree(directory):
    """The bytes of each file under *directory*, by path relative to it."""
    return {str(path.relative_to(directory)): path.read_bytes() for path in directory.rglob("*") if path.is_file()}


def prefix_bom(path):
    """Put a UTF-8 byte-order mark in front of the file at *path*, as Windows editors often write."""
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def spoil_utf8(path):
    """Append a line holding a byte that is not UTF-8 to the file at *path*."""
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")


#: config text with one misspelling -> what the error message must name
MISSPELT_CONFIGS = [
    pytest.param("[error_anlysis]\nhallucination_threshold = 0.2\n", "[error_anlysis]", id="section"),
    pytest.param("[embedding]\ndimenson = 64\n", "dimenson", id="option"),
    pytest.param("[DEFAULT]\ndimension = 64\n", "[DEFAULT]", id="default-section"),
    pytest.param("[embedding]\ninclude_examples = true\n", "unknown option 'include_examples'", id="removed-option"),
]


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

    def test_lemma_list_with_invalid_byte_exit_3(self, runner, workspace):
        spoil_utf8(workspace / "five_lemmas.txt")
        result = run_generate(runner, workspace)
        assert result.exit_code == 3, result.output
        assert f"cannot parse {workspace / 'five_lemmas.txt'}" in result.output
        assert "not valid UTF-8" in result.output

    def test_lemma_list_with_byte_order_mark(self, runner, workspace):
        assert run_generate(runner, workspace).exit_code == 0
        plain = {name: (workspace / name).read_bytes() for name in ("generated.jsonl", "failures.jsonl")}
        prefix_bom(workspace / "five_lemmas.txt")
        result = run_generate(runner, workspace)
        assert result.exit_code == 0, result.output
        assert {name: (workspace / name).read_bytes() for name in plain} == plain

    def test_unwritable_failure_log_leaves_the_dictionary_as_it_was(self, runner, workspace):
        # a dictionary from an earlier run, which the new one would differ from
        with open(workspace / "generated.jsonl", "w", encoding="utf-8") as fh:
            write_dictionary(make_dictionary(make_entry("sal", "Nombre femenino", "Sustancia blanca.")), fh)
        before = (workspace / "generated.jsonl").read_bytes()
        (workspace / "blocker").write_text("a plain file, not a directory")
        result = run_generate(runner, workspace, extra=["--failures", str(workspace / "blocker" / "failures.jsonl")])
        assert result.exit_code == 4, result.output
        assert "File exists" in result.output
        assert (workspace / "generated.jsonl").read_bytes() == before
        assert [path.name for path in workspace.iterdir() if path.name.endswith(".tmp")] == []

    @pytest.mark.parametrize(
        ("extra", "named"),
        [
            (["--out", "same.jsonl", "--failures", "same.jsonl"], "--out and --failures"),
            (["--out", "five_lemmas.txt"], "--lemmas and --out"),
            (["--failures", "sub/../five_lemmas.txt"], "--lemmas and --failures"),
            (["--out", "stub_config.ini"], "--config and --out"),
            (["--out", "link.txt"], "--lemmas and --out"),
            (["--failures", "hard.txt"], "--lemmas and --failures"),
            (["--audit", "generated.jsonl"], "--out and --audit"),
            (["--failures", "stub_replies.json"], "[provider] replies and --failures"),
            (["--out", "template.txt"], "[prompt] template and --out"),
        ],
        ids=["out-is-failures", "out-is-lemmas", "failures-is-lemmas", "out-is-config", "symlink", "hard-link",
             "audit", "stub-replies", "prompt-template"],
    )
    def test_output_naming_an_input_or_another_output_exit_2(self, runner, workspace, extra, named):
        (workspace / "link.txt").symlink_to(workspace / "five_lemmas.txt")
        os.link(workspace / "five_lemmas.txt", workspace / "hard.txt")
        (workspace / "generated.jsonl").write_text("an earlier dictionary\n", encoding="utf-8")
        (workspace / "template.txt").write_text("Define:\n{{BATCH}}\n", encoding="utf-8")
        with open(workspace / "stub_config.ini", "a", encoding="utf-8") as fh:
            fh.write("\n[prompt]\ntemplate = template.txt\n")
        before = tree(workspace)
        extra = [arg if arg.startswith("--") else str(workspace / arg) for arg in extra]
        result = run_generate(runner, workspace, extra=extra)
        assert result.exit_code == 2, result.output
        assert f"{named} name the same file" in result.output
        assert tree(workspace) == before  # every file byte-identical, and no temp file left

    @pytest.mark.parametrize("option", ["--out", "--failures", "--lemmas"])
    def test_path_inside_the_audit_directory_exit_2(self, runner, workspace, option):
        # an earlier run's audit files: this run would write batch_0001.txt over the file
        assert run_generate(runner, workspace, extra=["--audit", str(workspace / "audit")]).exit_code == 0
        if option == "--lemmas":
            shutil.copy(workspace / "five_lemmas.txt", workspace / "audit" / "batch_0001.txt")
        before = tree(workspace)
        target = workspace / "audit" / "batch_0001.txt"
        result = run_generate(runner, workspace, extra=["--audit", str(workspace / "audit"), option, str(target)])
        assert result.exit_code == 2, result.output
        assert f"{option} lies inside the --audit directory" in result.output
        assert tree(workspace) == before  # every file byte-identical, and no temp file left

    @pytest.mark.parametrize(
        ("text", "named"),
        [
            ('{"casa": ', "cannot load stub replies"),
            ('{"casa": null}', "the reply to 'casa' must be a string"),
            # an unpaired surrogate cannot be written out as UTF-8
            ('{"casa": "casa: Nombre femenino: \\ud800"}', "cannot load stub replies"),
        ],
        ids=["invalid-json", "null-reply", "unpaired-surrogate"],
    )
    def test_malformed_stub_replies_exit_2(self, runner, workspace, text, named):
        (workspace / "stub_replies.json").write_text(text, encoding="utf-8")
        result = run_generate(runner, workspace)
        assert result.exit_code == 2, result.output
        assert named in result.output and str(workspace / "stub_replies.json") in result.output
        assert not (workspace / "generated.jsonl").exists()

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

    def test_infinite_float_option_exit_2(self, runner, workspace):
        # the stub config ends in [generation]; an inf temperature would be sent as null
        with open(workspace / "stub_config.ini", "a", encoding="utf-8") as fh:
            fh.write("\ntemperature = inf\n")
        result = run_generate(runner, workspace)
        assert result.exit_code == 2, result.output
        assert "[generation] temperature must be a finite number, got 'inf'" in result.output
        assert not (workspace / "generated.jsonl").exists()

    @pytest.mark.parametrize(("text", "named"), MISSPELT_CONFIGS)
    def test_misspelt_config_exit_2(self, runner, workspace, text, named):
        stub = (workspace / "stub_config.ini").read_text(encoding="utf-8")
        (workspace / "stub_config.ini").write_text(stub + "\n" + text, encoding="utf-8")
        result = run_generate(runner, workspace)
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert not (workspace / "generated.jsonl").exists()

    def test_unset_credential_variable_exit_2(self, runner, workspace, monkeypatch):
        monkeypatch.delenv("LEXIFORGE_TEST_NO_SUCH_KEY", raising=False)
        (workspace / "stub_config.ini").write_text(
            "[provider]\nendpoint = http://127.0.0.1:9/v1/chat/completions\ncredential_env = LEXIFORGE_TEST_NO_SUCH_KEY\n",
            encoding="utf-8",
        )
        result = run_generate(runner, workspace)
        assert result.exit_code == 2, result.output
        assert "LEXIFORGE_TEST_NO_SUCH_KEY" in result.output
        assert not (workspace / "failures.jsonl").exists()

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
    """Embedding service that answers every text with four copies of ``value``: an all-zero vector by default.

    ``value`` is the token as the reply's text holds it, so that it can be one that is not JSON.
    """

    value = "0.0"

    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        row = "[" + ", ".join([self.value] * 4) + "]"
        data = ('{"vectors": [' + ", ".join([row] * len(texts)) + '], "dimension": 4}').encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class KeepAliveEmbeddingHandler(BaseHTTPRequestHandler):
    """Embedding service that keeps each connection open, as a real HTTP/1.1 server does.

    It answers with the deterministic embedder's trigram counts at ``dimension``.
    """

    protocol_version = "HTTP/1.1"
    dimension = 16

    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        vectors = [vector.tolist() for vector in DeterministicEmbedder(self.dimension).embed_batch(texts)]
        data = json.dumps({"vectors": vectors, "dimension": self.dimension}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class FailingOnCallEmbedder(DeterministicEmbedder):
    """The deterministic embedder, recording each batch; raises ServiceError on call number ``fail_on``."""

    def __init__(self, fail_on=None):
        super().__init__(512)
        self.fail_on = fail_on
        self.batches = []

    def embed_batch(self, texts):
        self.batches.append(list(texts))
        if len(self.batches) == self.fail_on:
            raise ServiceError("embedding service unreachable")
        return super().embed_batch(texts)


OUTPUTS = ("report.json", "alignments.jsonl", "findings.jsonl", "polysemy_pairs.jsonl")


class TestEvaluate:
    def test_outputs_written(self, runner, workspace):
        result = run_evaluate(runner, workspace)
        assert result.exit_code == 0, result.output
        out = workspace / "eval"
        for name in OUTPUTS:
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
        for name in OUTPUTS:
            first = (workspace / "run1" / name).read_bytes()
            second = (workspace / "run2" / name).read_bytes()
            assert first == second, name

    def test_rerun_without_polysemous_entries_empties_the_pairs_file(self, runner, workspace):
        assert run_evaluate(runner, workspace).exit_code == 0
        assert (workspace / "eval" / "polysemy_pairs.jsonl").read_text(encoding="utf-8")
        result = run_evaluate(runner, workspace, generated="clean_generated.jsonl", gold="clean_gold.jsonl")
        assert result.exit_code == 0, result.output
        assert (workspace / "eval" / "polysemy_pairs.jsonl").read_bytes() == b""

    @pytest.mark.parametrize(("umask", "mode"), [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_take_the_mode_the_umask_leaves(self, workspace, umask, mode):
        # the umask is the process's, so the command runs in a process of its own
        command = [
            sys.executable, "-c", "from lexiforge.cli import main; main()",
            "evaluate",
            "--generated", str(workspace / "fixture20_generated.jsonl"),
            "--gold", str(workspace / "fixture20_gold.jsonl"),
            "--config", str(workspace / "eval_config.ini"),
            "--out", str(workspace / "eval"),
        ]
        done = subprocess.run(command, env=child_env(), umask=umask, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for name in OUTPUTS:
            assert stat.S_IMODE((workspace / "eval" / name).stat().st_mode) == mode, name
        assert sorted(path.name for path in (workspace / "eval").iterdir()) == sorted(OUTPUTS)

    def test_failed_scoring_leaves_the_previous_outputs(self, runner, workspace, monkeypatch):
        result = run_evaluate(runner, workspace, generated="clean_generated.jsonl", gold="clean_gold.jsonl")
        assert result.exit_code == 0, result.output
        before = snapshot(workspace / "eval")
        assert sorted(before) == sorted(OUTPUTS)
        # the over-correction batch fails, after every key block's lines are written
        failing = FailingOnCallEmbedder(fail_on=2)
        monkeypatch.setattr("lexiforge.cli.build_embedder", lambda choice, settings: failing)
        result = run_evaluate(runner, workspace)
        assert result.exit_code == 5, result.output
        assert len(failing.batches) == 2
        assert snapshot(workspace / "eval") == before

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_vector_exit_5(self, runner, workspace, monkeypatch, value):
        class NonFinite(DeterministicEmbedder):
            def embed_batch(self, texts):
                vectors = super().embed_batch(texts)
                vectors[len(texts) // 2, 0] = value
                return vectors

        monkeypatch.setattr("lexiforge.cli.build_embedder", lambda choice, settings: NonFinite(64))
        result = run_evaluate(runner, workspace)
        assert result.exit_code == 5, result.output
        assert "non-finite" in result.output
        assert not (workspace / "eval").exists() or list((workspace / "eval").iterdir()) == []

    # lemmas of four gold senses each, so that alignments.jsonl outgrows report.json; the lines
    # of 20 lemmas stay in the stream's buffer until the last flush, those of 60 overflow it in the loop
    @pytest.mark.parametrize("lemmas", [pytest.param(20, id="at-the-flush"), pytest.param(60, id="inside-the-loop")])
    def test_failed_write_leaves_the_previous_outputs(self, runner, workspace, lemmas):
        with open(workspace / "wide_generated.jsonl", "w", encoding="utf-8") as fh:
            entries = (make_entry(f"lema{i}", "Verbo", f"Sentido 0 de lema {i}.") for i in range(lemmas))
            write_dictionary(make_dictionary(*entries), fh)
        with open(workspace / "wide_gold.jsonl", "w", encoding="utf-8") as fh:
            senses = [[f"Sentido {j} de lema {i}." for j in range(4)] for i in range(lemmas)]
            write_dictionary(make_dictionary(*(make_entry(f"lema{i}", "Verbo", *senses[i]) for i in range(lemmas))), fh)
        result = run_evaluate(runner, workspace, out="sizes", generated="wide_generated.jsonl", gold="wide_gold.jsonl")
        assert result.exit_code == 0, result.output
        limit = (workspace / "sizes" / "report.json").stat().st_size
        assert (workspace / "sizes" / "alignments.jsonl").stat().st_size > limit
        assert run_evaluate(runner, workspace).exit_code == 0
        before = snapshot(workspace / "eval")
        assert all(before[name] != (workspace / "sizes" / name).read_bytes() for name in OUTPUTS)
        # no file may grow past report.json's size, so the first write past it into alignments.jsonl fails
        code = (
            "import resource, signal\n"
            "from lexiforge.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "main()\n"
        )
        command = [
            sys.executable, "-c", code,
            "evaluate",
            "--generated", str(workspace / "wide_generated.jsonl"),
            "--gold", str(workspace / "wide_gold.jsonl"),
            "--config", str(workspace / "eval_config.ini"),
            "--out", str(workspace / "eval"),
        ]
        done = subprocess.run(command, env=child_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 4, done.stderr
        assert "File too large" in done.stderr
        assert snapshot(workspace / "eval") == before

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

    def test_failure_log_with_null_detail_exit_3(self, runner, workspace):
        record = {"lemma": "a", "pos": None, "reason": "refusal", "detail": None}
        (workspace / "bad_failures.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        result = run_evaluate(runner, workspace, extra=["--failures", str(workspace / "bad_failures.jsonl")])
        assert result.exit_code == 3, result.output
        assert "field detail" in result.output

    def test_input_with_unpaired_surrogate_exit_3(self, runner, workspace):
        # "\ud800" is valid UTF-8 and valid JSON syntax, but names no character:
        # read as one, it would fail only when the outputs are written
        generated = workspace / "fixture20_generated.jsonl"
        record = '{"lemma": "casa", "pos": "Nombre femenino", "senses": [{"definition": "Edificio \\ud800.", "example": null}]}'
        generated.write_text(record + "\n" + generated.read_text(encoding="utf-8"), encoding="utf-8")
        result = run_evaluate(runner, workspace)
        assert result.exit_code == 3, result.output
        assert f"cannot parse {generated}" in result.output and "line 1" in result.output
        assert not (workspace / "eval").exists()

    # the digest is of the file's bytes, so it alone differs; the failure log has none
    @pytest.mark.parametrize(
        ("bommed", "digest"),
        [
            ("planted_generated.jsonl", "generated_digest"),
            ("planted_gold.jsonl", "gold_digest"),
            ("planted_failures.jsonl", None),
        ],
    )
    def test_input_with_byte_order_mark(self, runner, workspace, bommed, digest):
        names = ("planted_generated.jsonl", "planted_gold.jsonl", "planted_failures.jsonl")
        (workspace / "bom").mkdir()
        for name in names:
            shutil.copy(workspace / name, workspace / "bom" / name)
        prefix_bom(workspace / "bom" / bommed)
        for out, inputs in (("plain", ""), ("with_bom", "bom/")):
            result = run_evaluate(
                runner, workspace, out=out, generated=inputs + names[0], gold=inputs + names[1],
                extra=["--failures", str(workspace / (inputs + names[2]))],
            )
            assert result.exit_code == 0, result.output
        for name in ("alignments.jsonl", "findings.jsonl", "polysemy_pairs.jsonl"):
            assert (workspace / "with_bom" / name).read_bytes() == (workspace / "plain" / name).read_bytes(), name
        plain, with_bom = (json.loads((workspace / out / "report.json").read_bytes()) for out in ("plain", "with_bom"))
        if digest is not None:
            assert plain["provenance"].pop(digest) != with_bom["provenance"].pop(digest)
        assert with_bom == plain

    def test_byte_order_mark_after_the_first_line_exit_3(self, runner, workspace):
        # only a mark that starts the file is dropped; one inside it is bad JSON
        generated = workspace / "fixture20_generated.jsonl"
        first, rest = generated.read_bytes().split(b"\n", 1)
        generated.write_bytes(first + b"\n\xef\xbb\xbf" + rest)
        result = run_evaluate(runner, workspace)
        assert result.exit_code == 3, result.output
        assert f"cannot parse {generated}" in result.output and "line 2" in result.output
        assert not (workspace / "eval").exists()

    @pytest.mark.parametrize("spoilt", ["fixture20_generated.jsonl", "fixture20_gold.jsonl", "planted_failures.jsonl"])
    def test_input_with_invalid_byte_exit_3(self, runner, workspace, spoilt):
        spoil_utf8(workspace / spoilt)
        result = run_evaluate(runner, workspace, extra=["--failures", str(workspace / "planted_failures.jsonl")])
        assert result.exit_code == 3, result.output
        assert f"cannot parse {workspace / spoilt}" in result.output
        assert "not valid UTF-8" in result.output
        assert not (workspace / "eval").exists()

    def test_missing_failures_file_exit_3(self, runner, workspace):
        result = run_evaluate(runner, workspace, extra=["--failures", str(workspace / "no_such_failures.jsonl")])
        assert result.exit_code == 3, result.output
        assert f"cannot read {workspace / 'no_such_failures.jsonl'}" in result.output

    def test_unreadable_generated_exit_3(self, runner, workspace):
        result = run_evaluate(runner, workspace, generated="missing.jsonl")
        assert result.exit_code == 3

    def test_unwritable_output_exit_4(self, runner, workspace):
        blocker = workspace / "blocker"
        blocker.write_text("a plain file, not a directory")
        result = run_evaluate(runner, workspace, out="blocker/eval")
        assert result.exit_code == 4

    @pytest.mark.parametrize(
        ("option", "source", "output"),
        [
            ("--failures", "planted_failures.jsonl", "findings.jsonl"),
            ("--generated", "fixture20_generated.jsonl", "alignments.jsonl"),
            ("--gold", "fixture20_gold.jsonl", "report.json"),
            ("--config", "eval_config.ini", "polysemy_pairs.jsonl"),
        ],
        ids=["failures", "generated", "gold", "config"],
    )
    def test_output_naming_an_input_exit_2(self, runner, workspace, option, source, output):
        # the input is kept in --out under the name of one of the outputs
        (workspace / "ev2").mkdir()
        shutil.copy(workspace / source, workspace / "ev2" / output)
        inputs = {
            "--generated": "fixture20_generated.jsonl", "--gold": "fixture20_gold.jsonl",
            "--failures": "planted_failures.jsonl", "--config": "eval_config.ini", option: f"ev2/{output}",
        }
        before = tree(workspace)
        args = [arg for name, path in inputs.items() for arg in (name, str(workspace / path))]
        result = runner.invoke(main, ["evaluate", *args, "--embedder", "deterministic", "--out", str(workspace / "ev2")])
        assert result.exit_code == 2, result.output
        assert f"{option} and --out ({output}) name the same file" in result.output
        assert tree(workspace) == before  # every file byte-identical, and no temp file left

    @pytest.mark.parametrize(
        ("cache", "named"),
        [
            ("ev2/findings.jsonl", "[embedding] cache and --out (findings.jsonl)"),
            ("fixture20_gold.jsonl", "--gold and [embedding] cache"),
        ],
        ids=["an-output", "an-input"],
    )
    def test_vector_cache_naming_another_file_exit_2(self, runner, workspace, cache, named):
        # the cache is appended to, so naming an input or an output loses that file
        (workspace / "ev2").mkdir()
        (workspace / "ev2" / "findings.jsonl").write_text("", encoding="utf-8")
        (workspace / "eval_config.ini").write_text(f"[embedding]\ncache = {cache}\n", encoding="utf-8")
        before = tree(workspace)
        result = run_evaluate(runner, workspace, out="ev2")
        assert result.exit_code == 2, result.output
        assert f"{named} name the same file" in result.output
        assert tree(workspace) == before

    def test_output_hard_linked_to_an_input_exit_2(self, runner, workspace):
        (workspace / "ev2").mkdir()
        os.link(workspace / "planted_failures.jsonl", workspace / "ev2" / "findings.jsonl")
        before = tree(workspace)
        failures = str(workspace / "planted_failures.jsonl")
        result = run_evaluate(runner, workspace, out="ev2", extra=["--failures", failures])
        assert result.exit_code == 2, result.output
        assert "--failures and --out (findings.jsonl) name the same file" in result.output
        assert tree(workspace) == before

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
        with http_server(handler) as base:
            (workspace / "remote.ini").write_text(
                f"[embedding]\nremote_url = {base}/embed\n", encoding="utf-8"
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

    def test_zero_vector_from_service_exit_5(self, runner, workspace):
        result = self.evaluate_against(runner, workspace, ZeroVectorHandler)
        assert result.exit_code == 5, result.output
        assert "all-zero" in result.output
        assert not (workspace / "x" / "report.json").exists()

    # NaN, Infinity and a number past the largest double are not JSON: the
    # reply does not parse. A null parses, and fails the finiteness check.
    @pytest.mark.parametrize(
        ("value", "message"),
        [
            ('"x"', "malformed"),
            ("NaN", "malformed"),
            ("Infinity", "malformed"),
            ("-Infinity", "malformed"),
            ("1e400", "malformed"),
            ("null", "non-finite"),
        ],
    )
    def test_bad_vector_value_from_service_exit_5(self, runner, workspace, value, message):
        handler = type("BadVectorHandler", (ZeroVectorHandler,), {"value": value})
        result = self.evaluate_against(runner, workspace, handler)
        assert result.exit_code == 5, result.output
        assert message in result.output
        assert not (workspace / "x" / "report.json").exists()

    def test_cached_run_resumes_after_a_service_error(self, runner, workspace, monkeypatch):
        monkeypatch.setattr("lexiforge.report.KEY_BLOCK", 4)
        cache = workspace / "vectors.jsonl"

        def evaluate_with(inner, out, cached=True):
            embedder = CachingEmbedder(inner, cache) if cached else inner
            monkeypatch.setattr("lexiforge.cli.build_embedder", lambda choice, settings: embedder)
            return run_evaluate(runner, workspace, out=out)

        uncached = FailingOnCallEmbedder()
        assert evaluate_with(uncached, "uncached", cached=False).exit_code == 0
        assert len(uncached.batches) == 20 // 4 + 1  # one per key block, one for over-corrections

        failing = FailingOnCallEmbedder(fail_on=3)
        result = evaluate_with(failing, "failed")
        assert result.exit_code == 5, result.output
        kept = set(failing.batches[0] + failing.batches[1])
        assert len(cache.read_text(encoding="utf-8").splitlines()) == len(kept)
        probe = FailingOnCallEmbedder(fail_on=1)
        with closing(CachingEmbedder(probe, cache)) as warm:
            warm.embed_batch(sorted(kept))  # all of them cached: the inner embedder is never called
        assert probe.batches == []

        healthy = FailingOnCallEmbedder()
        assert evaluate_with(healthy, "resumed").exit_code == 0
        sent = [text for batch in healthy.batches for text in batch]
        assert sorted(sent) == sorted({text for batch in uncached.batches for text in batch} - kept)
        for name in OUTPUTS:
            digests = {hashlib.sha256((workspace / run / name).read_bytes()).hexdigest() for run in ("uncached", "resumed")}
            assert len(digests) == 1, name

    def test_remote_embedder_with_cache_closes_what_it_opens(self, runner, workspace):
        with http_server(KeepAliveEmbeddingHandler) as base:
            (workspace / "remote.ini").write_text(
                f"[embedding]\nremote_url = {base}/embed\nremote_identifier = trigram-16\n"
                f"cache = {workspace / 'vectors.jsonl'}\n",
                encoding="utf-8",
            )
            gc.collect()  # what earlier tests left behind warns here, not below
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run_evaluate(runner, workspace, extra=["--embedder", "remote", "--config", str(workspace / "remote.ini")])
                gc.collect()
        assert result.exit_code == 0, result.output
        assert (workspace / "vectors.jsonl").stat().st_size > 0
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_remote_cache_without_an_encoder_name_exit_2(self, runner, workspace):
        # the cache keys vectors by remote_identifier: left at "remote", it
        # would hand one encoder's vectors to whichever encoder remote_url names next
        (workspace / "remote.ini").write_text(
            f"[embedding]\nremote_url = http://127.0.0.1:1/embed\ncache = {workspace / 'vectors.jsonl'}\n",
            encoding="utf-8",
        )
        result = run_evaluate(runner, workspace, extra=["--embedder", "remote", "--config", str(workspace / "remote.ini")])
        assert result.exit_code == 2, result.output
        assert "[embedding] cache with --embedder remote needs remote_identifier" in result.output
        assert not (workspace / "eval").exists() and not (workspace / "vectors.jsonl").exists()

    def test_report_is_the_same_whatever_port_serves_the_encoder(self, runner, workspace):
        with http_server(KeepAliveEmbeddingHandler) as first, http_server(KeepAliveEmbeddingHandler) as second:
            assert first != second
            for out, base in (("first", first), ("second", second)):
                (workspace / f"{out}.ini").write_text(f"[embedding]\nremote_url = {base}/embed\n", encoding="utf-8")
                result = run_evaluate(
                    runner, workspace, out=out, extra=["--embedder", "remote", "--config", str(workspace / f"{out}.ini")]
                )
                assert result.exit_code == 0, result.output
        assert (workspace / "first" / "report.json").read_bytes() == (workspace / "second" / "report.json").read_bytes()

    # blocks of 1 and 3 put several tables in each stream, and leave a last, partial block
    @pytest.mark.parametrize("block", [1, 3, None], ids=["blocks-of-1", "blocks-of-3", "default-blocks"])
    @pytest.mark.parametrize("fixture", ["fixture20", "planted"])
    def test_remote_run_writes_what_the_deterministic_embedder_writes(self, runner, workspace, monkeypatch, block, fixture):
        if block is not None:
            monkeypatch.setattr("lexiforge.report.KEY_BLOCK", block)
            monkeypatch.setattr("lexiforge.error_analysis.CANDIDATE_BLOCK", block)
        inputs = {"generated": f"{fixture}_generated.jsonl", "gold": f"{fixture}_gold.jsonl"}
        handler = type("CountsHandler", (KeepAliveEmbeddingHandler,), {"dimension": 512})
        with http_server(handler) as base:
            (workspace / "both.ini").write_text(f"[embedding]\nremote_url = {base}/embed\n", encoding="utf-8")
            for embedder in ("deterministic", "remote"):
                extra = ["--embedder", embedder, "--config", str(workspace / "both.ini")]
                result = run_evaluate(runner, workspace, out=embedder, extra=extra, **inputs)
                assert result.exit_code == 0, result.output
        assert "hallucination_candidate" in (workspace / "remote" / "findings.jsonl").read_text(encoding="utf-8")
        for name in ("alignments.jsonl", "polysemy_pairs.jsonl", "findings.jsonl"):
            assert (workspace / "remote" / name).read_bytes() == (workspace / "deterministic" / name).read_bytes(), name

    @pytest.mark.parametrize(("text", "named"), MISSPELT_CONFIGS)
    def test_misspelt_config_exit_2(self, runner, workspace, text, named):
        (workspace / "eval_config.ini").write_text(text, encoding="utf-8")
        result = run_evaluate(runner, workspace)
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert not (workspace / "eval").exists()

    @pytest.mark.parametrize("value", ["", "vectors"], ids=["empty", "directory"])
    def test_cache_that_cannot_be_read_exit_2(self, runner, workspace, value):
        # an empty value resolves to the config file's directory
        (workspace / "vectors").mkdir()
        (workspace / "eval_config.ini").write_text(f"[embedding]\ncache = {value}\n", encoding="utf-8")
        result = run_evaluate(runner, workspace)
        assert result.exit_code == 2, result.output
        assert f"cannot read [embedding] cache {workspace / value}: " in result.output
        assert not (workspace / "eval").exists()

    def test_cache_that_cannot_be_written_exit_4(self, runner, workspace):
        # a path in a missing directory opens nothing until the first vector is written
        (workspace / "eval_config.ini").write_text("[embedding]\ncache = missing/vectors.jsonl\n", encoding="utf-8")
        result = run_evaluate(runner, workspace)
        assert result.exit_code == 4, result.output
        assert "cannot write output" in result.output

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

    def test_negative_limit_exit_2(self, runner, planted_eval):
        result = runner.invoke(
            main,
            ["errors", "--eval", str(planted_eval), "--category", "hallucination_candidate", "--limit", "-1"],
        )
        assert result.exit_code == 2
        assert "--limit" in result.output and "finding(s)" not in result.output

    @pytest.mark.parametrize(("name", "value"), [("low_confidence", "false"), ("evidence", None), ("pos", 7)])
    def test_malformed_finding_exit_3(self, runner, planted_eval, name, value):
        path = planted_eval / "findings.jsonl"
        first, *rest = path.read_text(encoding="utf-8").splitlines()
        record = {**json.loads(first), name: value}
        path.write_text("\n".join([json.dumps(record, ensure_ascii=False), *rest]) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["errors", "--eval", str(planted_eval), "--category", "hallucination_candidate"])
        assert result.exit_code == 3, result.output
        assert f"line 1: {name} must be" in result.output

    def test_findings_with_invalid_byte_exit_3(self, runner, planted_eval):
        spoil_utf8(planted_eval / "findings.jsonl")
        result = runner.invoke(main, ["errors", "--eval", str(planted_eval), "--category", "hallucination_candidate"])
        assert result.exit_code == 3, result.output
        assert f"cannot parse {planted_eval / 'findings.jsonl'}" in result.output
        assert "not valid UTF-8" in result.output

    def test_findings_with_byte_order_mark(self, runner, planted_eval):
        args = ["errors", "--eval", str(planted_eval), "--category", "hallucination_candidate"]
        plain = runner.invoke(main, args)
        prefix_bom(planted_eval / "findings.jsonl")
        with_bom = runner.invoke(main, args)
        assert with_bom.exit_code == plain.exit_code == 0, with_bom.output
        assert with_bom.output == plain.output

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

