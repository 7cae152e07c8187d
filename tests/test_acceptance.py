"""Acceptance suite: one test per criterion, each printing a PASS line.

Float comparisons against the scratch oracle use 1e-12 unless the
criterion states its own tolerance; integer-valued results (counts,
indices, cells) are compared exactly.
"""

import json
import random
from fractions import Fraction
from http.server import BaseHTTPRequestHandler

import numpy as np
import pytest
from click.testing import CliRunner

from lexiforge.cli import main
from lexiforge.embedding import embed_deterministic
from lexiforge.error_analysis import ErrorAnalysisConfig, ErrorCategory, hallucination_candidates
from lexiforge.exceptions import ProviderError
from lexiforge.generation import GenerationConfig, LemmaRecord, render_reply_block, run_generation
from lexiforge.ingestion import parse_dictionary, parse_failures, write_dictionary, write_failures
from lexiforge.metrics import ConfusionMatrix2x2, class_metrics
from lexiforge.report import load_report

from _oracles import (
    cosine_similarity,
    oracle_population_stats,
    oracle_text_cosine,
)
from conftest import DATA_DIR, http_server
from test_error_analysis import classify
from test_error_analysis import record as alignment_record

TABLE1 = ConfusionMatrix2x2(mono_mono=49_114, mono_poly=699, poly_mono=24_444, poly_poly=2_706)


def ok(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}")


def test_criterion_01_metrics_cross_derivation():
    monosemy = class_metrics(TABLE1, "monosemy")
    assert monosemy.precision == pytest.approx(0.668, abs=0.002)
    assert monosemy.recall == pytest.approx(0.986, abs=0.002)
    assert monosemy.f1 == pytest.approx(0.798, abs=0.002)
    polysemy = class_metrics(TABLE1, "polysemy")
    assert polysemy.precision == pytest.approx(0.795, abs=0.002)
    assert polysemy.f1 == pytest.approx(0.177, abs=0.002)
    # the cells derive recall to 0.0997; the printed 0.098 sits inside ±0.002
    assert polysemy.recall == pytest.approx(float(Fraction(2_706, 27_150)), abs=1e-15)
    assert polysemy.recall == pytest.approx(0.0997, abs=0.0001)
    assert polysemy.recall == pytest.approx(0.098, abs=0.002)
    ok(1, "published confusion cells reproduce the published P/R/F1 within ±0.002")


def test_criterion_02_marginal_consistency():
    assert TABLE1.actual_mono == 49_114 + 699 == 49_813
    assert TABLE1.actual_poly == 24_444 + 2_706 == 27_150
    assert TABLE1.pred_mono == 49_114 + 24_444 == 73_558
    assert TABLE1.pred_poly == 699 + 2_706 == 3_405
    assert TABLE1.total == 76_963
    ok(2, "recomputed marginals equal 49,813 / 27,150 / 73,558 / 3,405 / 76,963 exactly")


class ChaoticProvider:
    """Randomly drops lemmas, refuses, or fails transport, per seeded RNG."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def complete(self, request):
        roll = self.rng.random()
        if roll < 0.15:
            raise ProviderError("synthetic transport failure", retryable=True)
        if roll < 0.20:
            raise ProviderError("synthetic rejection", retryable=False)
        parts = []
        for lemma in request.lemmas:
            sub = self.rng.random()
            if sub < 0.15:
                continue  # omit -> parse_error
            if sub < 0.30:
                parts.append(f"{lemma}: Verbo: Palabra inexistente en español.")
            else:
                parts.append(render_reply_block(lemma, "Verbo", [(f"Definición de {lemma}.", None)]))
        from lexiforge.providers import ProviderResponse

        return ProviderResponse(text="\n".join(parts))


def test_criterion_03_conservation():
    assert 77_093 + 17_379 == 94_472  # the published run shape
    rng = random.Random(2024)
    violations = 0
    for run in range(200):
        count = rng.randint(0, 40)
        records = [LemmaRecord(f"palabra{run}x{i}") for i in range(count)]
        config = GenerationConfig(
            batch_size=rng.choice([1, 2, 7, 32]),
            max_retries=rng.choice([0, 1, 2]),
            retry_backoff=0.0,
            max_concurrent_batches=rng.choice([1, 4]),
        )
        dictionary, failures, _ = run_generation(
            records, ChaoticProvider(rng), config, sleep=lambda _: None
        )
        if len(dictionary) + len(failures) != len(records):
            violations += 1
    assert violations == 0
    ok(3, "entries + failures = inputs over 200 randomized stub runs (and 77,093 + 17,379 = 94,472)")


def test_criterion_04_cosine_properties():
    rng = np.random.default_rng(99)
    for _ in range(1_000):
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        value = cosine_similarity(a, b)
        assert cosine_similarity(b, a) == value  # symmetry, exact
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
        assert abs(cosine_similarity(a, a) - 1.0) <= 1e-9
        k = float(rng.uniform(0.05, 20.0))
        assert abs(cosine_similarity(k * a, b) - value) <= 1e-9
    for _ in range(200):
        gen = rng.normal(size=16)
        gold = [rng.normal(size=16) for _ in range(4)]
        scores = [cosine_similarity(gen, g) for g in gold]
        scaled = [cosine_similarity(gen * float(rng.uniform(0.1, 5.0)), g * float(rng.uniform(0.1, 5.0))) for g in gold]
        assert int(np.argmax(scores)) == int(np.argmax(scaled))
    ok(4, "1,000 random pairs: symmetry exact, range/self-similarity within 1e-9, scale-invariant argmax")


def test_criterion_05_deterministic_embedder_golden_file():
    golden = json.loads((DATA_DIR / "embed_golden.json").read_text(encoding="utf-8"))
    dimension = golden["dimension"]
    for text, expected in golden["vectors"].items():
        first = embed_deterministic(text, dimension)
        second = embed_deterministic(text, dimension)
        assert first.tobytes() == second.tobytes()
        assert first.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        assert abs(cosine_similarity(first, second) - 1.0) <= 1e-9
    assert len(golden["vectors"]) == 10
    ok(5, "10 golden strings embed byte-identically across runs and match the committed file")


_CAT = {"nombre": "noun", "adjetivo": "adjective", "verbo": "verb", "adverbio": "adverb"}

# frozen from the scratch oracle over the committed fixture pair
FIXTURE20_TABLE3_ALL = (11, 0.576084, 0.264938)
FIXTURE20_TABLE5_ALL = (5, 0.380338, 0.105087)
FIXTURE20_LENGTH_GEN_WORDS = (24, 6.0, 1.957890)


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _oracle_fixture_expectations():
    gen_rows = _read_jsonl(DATA_DIR / "fixture20_generated.jsonl")
    gold_rows = {r["lemma"]: r for r in _read_jsonl(DATA_DIR / "fixture20_gold.jsonl")}
    cells = {"mono_mono": 0, "mono_poly": 0, "poly_mono": 0, "poly_poly": 0}
    best_index, best_score, mean_score, histogram = {}, {}, {}, {}
    table3, table5 = {"all": []}, {"all": []}
    for row in gen_rows:
        gold = gold_rows[row["lemma"]]
        gen_mono = len(row["senses"]) == 1
        gold_mono = len(gold["senses"]) == 1
        cells[("mono_" if gold_mono else "poly_") + ("mono" if gen_mono else "poly")] += 1
        scores = [oracle_text_cosine(row["senses"][0]["definition"], s["definition"]) for s in gold["senses"]]
        best = 0
        for i, s in enumerate(scores):
            if s > scores[best]:
                best = i
        best_index[row["lemma"]] = best + 1
        best_score[row["lemma"]] = scores[best]
        mean_score[row["lemma"]] = sum(scores) / len(scores)
        group = _CAT[row["pos"].split()[0].lower()]
        if gen_mono and gold_mono:
            table3["all"].append(scores[best])
            table3.setdefault(group, []).append(scores[best])
        if gen_mono and not gold_mono:
            table5["all"].append(mean_score[row["lemma"]])
            table5.setdefault(group, []).append(mean_score[row["lemma"]])
            histogram[best + 1] = histogram.get(best + 1, 0) + 1
    return cells, best_index, best_score, mean_score, histogram, table3, table5


def test_criterion_06_fixture_oracle_evaluation(tmp_path):
    (tmp_path / "config.ini").write_text("[embedding]\ndimension = 512\n", encoding="utf-8")
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--generated", str(DATA_DIR / "fixture20_generated.jsonl"),
            "--gold", str(DATA_DIR / "fixture20_gold.jsonl"),
            "--embedder", "deterministic",
            "--config", str(tmp_path / "config.ini"),
            "--out", str(tmp_path / "eval"),
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "eval" / "report.json").read_text(encoding="utf-8"))
    cells, best_index, best_score, mean_score, histogram, table3, table5 = _oracle_fixture_expectations()

    # hand-classified confusion cells, exact
    assert report["confusion"] == cells == {"mono_mono": 11, "mono_poly": 1, "poly_mono": 5, "poly_poly": 3}
    # best indices and histogram, exact
    alignments = _read_jsonl(tmp_path / "eval" / "alignments.jsonl")
    assert len(alignments) == 20
    for row in alignments:
        assert row["best_gold_index"] == best_index[row["lemma"]], row["lemma"]
        assert row["best_score"] == pytest.approx(best_score[row["lemma"]], abs=1e-12)
        assert row["mean_over_gold"] == pytest.approx(mean_score[row["lemma"]], abs=1e-12)
    assert {int(k): v for k, v in report["rank_histogram"].items()} == histogram == {1: 2, 2: 3}

    # cosine tables against the oracle, and frozen spot values
    for name, expected_groups in (("cosine_monosemous_gold", table3), ("cosine_polysemous_gold", table5)):
        got = report[name]
        assert set(got) == set(expected_groups)
        for group, values in expected_groups.items():
            mean, std = oracle_population_stats(values)
            assert got[group]["count"] == len(values)
            assert got[group]["mean"] == pytest.approx(mean, abs=1e-12)
            assert got[group]["std_dev"] == pytest.approx(std, abs=1e-12)
    count, mean, std = FIXTURE20_TABLE3_ALL
    table3_all = report["cosine_monosemous_gold"]["all"]
    assert table3_all["count"] == count
    assert table3_all["mean"] == pytest.approx(mean, abs=1e-6)
    assert table3_all["std_dev"] == pytest.approx(std, abs=1e-6)
    count, mean, std = FIXTURE20_TABLE5_ALL
    table5_all = report["cosine_polysemous_gold"]["all"]
    assert table5_all["count"] == count
    assert table5_all["mean"] == pytest.approx(mean, abs=1e-6)
    assert table5_all["std_dev"] == pytest.approx(std, abs=1e-6)

    # length statistics, frozen from per-sense hand counts
    words = report["length_stats"]["generated"]["all"]["words"]
    count, mean, std = FIXTURE20_LENGTH_GEN_WORDS
    assert words["count"] == count and words["mean"] == mean
    assert words["std_dev"] == pytest.approx(std, abs=1e-6)
    ok(6, "cmd_evaluate reproduces the fixture-20 oracle values (ints exact, floats to 1e-12)")


def test_criterion_07_hallucination_filter_equivalence():
    rng = random.Random(77)
    records = [alignment_record(f"l{i}", round(rng.random(), 4)) for i in range(120)]
    for _ in range(50):
        threshold = round(rng.random(), 4)
        config = ErrorAnalysisConfig(hallucination_threshold=threshold)
        flagged = {f.lemma for f in hallucination_candidates(records, config)}
        brute = {r.lemma for r in records if r.best_score < threshold}
        assert flagged == brute
    boundary = alignment_record("frontera", 0.25)
    config = ErrorAnalysisConfig(hallucination_threshold=0.25)
    assert hallucination_candidates([boundary], config) == []
    ok(7, "flag sets equal the brute-force scan for 50 random thresholds; boundary score unflagged")


def test_criterion_08_error_taxonomy_planted_fixture(tmp_path):
    with open(DATA_DIR / "planted_generated.jsonl", encoding="utf-8") as fh:
        generated = parse_dictionary(fh)
    with open(DATA_DIR / "planted_gold.jsonl", encoding="utf-8") as fh:
        gold = parse_dictionary(fh)
    with open(DATA_DIR / "planted_failures.jsonl", encoding="utf-8") as fh:
        failures = parse_failures(fh)
    report = classify(generated, gold, failures)
    assert report.summary["hallucination_candidate"] >= 4
    assert report.summary["circularity"] == 1
    assert report.summary["proper_noun_as_common"] == 1
    assert report.summary["fabricated_polysemy"] == 1
    assert report.summary["overcorrection"] == 1
    assert report.summary["refusal"] == 1
    evidence = {f.category: f for f in report.findings}
    assert "destaque" in evidence[ErrorCategory.OVERCORRECTION].evidence
    assert "duplicate" in evidence[ErrorCategory.FABRICATED_POLYSEMY].evidence
    assert evidence[ErrorCategory.CIRCULARITY].lemma == "gato"
    assert evidence[ErrorCategory.PROPER_NOUN_AS_COMMON].lemma == "simón"
    assert evidence[ErrorCategory.REFUSAL].lemma == "jaharrar"

    with open(DATA_DIR / "clean_generated.jsonl", encoding="utf-8") as fh:
        clean_gen = parse_dictionary(fh)
    with open(DATA_DIR / "clean_gold.jsonl", encoding="utf-8") as fh:
        clean_gold = parse_dictionary(fh)
    clean = classify(clean_gen, clean_gold)
    assert clean.findings == []
    ok(8, "every planted error category found with correct evidence; clean fixture yields none")


def test_criterion_09_round_trip_and_determinism(tmp_path):
    import io

    with open(DATA_DIR / "fixture20_generated.jsonl", encoding="utf-8") as fh:
        dictionary = parse_dictionary(fh)
    buffer = io.StringIO()
    write_dictionary(dictionary, buffer)
    reparsed = parse_dictionary(io.StringIO(buffer.getvalue()))
    assert reparsed.entries() == dictionary.entries()

    with open(DATA_DIR / "planted_failures.jsonl", encoding="utf-8") as fh:
        failures = parse_failures(fh)
    fail_buffer = io.StringIO()
    write_failures(failures, fail_buffer)
    assert parse_failures(io.StringIO(fail_buffer.getvalue())) == failures

    runner = CliRunner()
    outputs = []
    for run, concurrency in (("run1", 1), ("run2", 8)):
        config = tmp_path / f"config_{run}.ini"
        config.write_text(
            f"[embedding]\ndimension = 512\n\n[generation]\nmax_concurrent_batches = {concurrency}\n",
            encoding="utf-8",
        )
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--generated", str(DATA_DIR / "fixture20_generated.jsonl"),
                "--gold", str(DATA_DIR / "fixture20_gold.jsonl"),
                "--embedder", "deterministic",
                "--config", str(config),
                "--out", str(tmp_path / run),
            ],
        )
        assert result.exit_code == 0, result.output
        outputs.append({
            name: (tmp_path / run / name).read_bytes()
            for name in ("report.json", "alignments.jsonl", "findings.jsonl", "polysemy_pairs.jsonl")
        })
    assert outputs[0] == outputs[1]
    loaded = load_report(tmp_path / "run1" / "report.json")
    assert loaded.join_size == 20  # report file re-loads into the same structure
    ok(9, "serialization round-trips; cmd_evaluate is byte-identical across concurrency settings")


class OracleEmbeddingHandler(BaseHTTPRequestHandler):
    """Embedding service stub that serves scratch-oracle vectors."""

    def do_POST(self):
        from _oracles import oracle_embed

        length = int(self.headers.get("Content-Length", 0))
        texts = json.loads(self.rfile.read(length))["texts"]
        vectors = [oracle_embed(t, 512) for t in texts]
        data = json.dumps({"vectors": vectors, "dimension": 512}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_criterion_10_full_scale_stand_in(tmp_path):
    # Regenerating Tables 3-5 needs the published 77k dataset and the
    # neural encoder service: out of desk scale by design. The remote
    # path itself is exercised end to end against a local stub service.
    with http_server(OracleEmbeddingHandler) as base:
        url = f"{base}/embed"
        config = tmp_path / "remote.ini"
        config.write_text(f"[embedding]\nremote_url = {url}\n", encoding="utf-8")
        runner = CliRunner()
        for out, embedder in (("det", "deterministic"), ("rem", "remote")):
            result = runner.invoke(
                main,
                [
                    "evaluate",
                    "--generated", str(DATA_DIR / "fixture20_generated.jsonl"),
                    "--gold", str(DATA_DIR / "fixture20_gold.jsonl"),
                    "--embedder", embedder,
                    "--config", str(config),
                    "--out", str(tmp_path / out),
                ],
            )
            assert result.exit_code == 0, result.output
        det = json.loads((tmp_path / "det" / "report.json").read_text(encoding="utf-8"))
        rem = json.loads((tmp_path / "rem" / "report.json").read_text(encoding="utf-8"))
        assert rem["confusion"] == det["confusion"]
        assert rem["cosine_monosemous_gold"] == det["cosine_monosemous_gold"]
        assert rem["cosine_polysemous_gold"] == det["cosine_polysemous_gold"]
        assert rem["rank_histogram"] == det["rank_histogram"]
        assert rem["provenance"]["embedder"] == "remote"
    ok(10, "full-scale Tables 3-5 need the production dataset and encoder service; remote path runs end to end")
