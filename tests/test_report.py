import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from lexiforge.embedding import DeterministicEmbedder, embed_deterministic
from lexiforge.error_analysis import ErrorAnalysisConfig, ErrorCategory, parse_findings
from lexiforge.ingestion import parse_failures
from lexiforge.metrics import ConfusionMatrix2x2, class_metrics
from lexiforge.model import Dictionary, PosCategory
from lexiforge.report import (
    KEY_BLOCK,
    EvaluationReport,
    atomic_text,
    evaluate_dictionaries,
    load_report,
    render_tables,
    write_report,
)

from _oracles import cosine_similarity
from conftest import make_dictionary, make_entry
from test_error_analysis import planted_overcorrections

EMBEDDER = DeterministicEmbedder(dimension=512)

OUTPUTS = ("report.json", "alignments.jsonl", "polysemy_pairs.jsonl", "findings.jsonl")


def outputs(out_dir):
    """The bytes of each file that ``evaluate_dictionaries`` writes under *out_dir*."""
    return {name: (Path(out_dir) / name).read_bytes() for name in OUTPUTS}


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def write_to(report, path):
    with atomic_text(path) as (fh,):
        write_report(report, fh)


@pytest.fixture
def fixture20_report(fixture20, tmp_path):
    generated, gold = fixture20
    return evaluate_dictionaries(generated, gold, EMBEDDER, tmp_path / "eval")


class TestEvaluateDictionaries:
    def test_confusion_matches_hand_classification(self, fixture20_report):
        assert fixture20_report.join_size == 20
        assert fixture20_report.confusion == ConfusionMatrix2x2(mono_mono=11, mono_poly=1, poly_mono=5, poly_poly=3)

    def test_rank_histogram(self, fixture20_report):
        assert fixture20_report.rank_histogram == {1: 2, 2: 3}

    def test_class_metrics_rederivable_from_cells(self, fixture20_report):
        for positive in ("monosemy", "polysemy"):
            assert fixture20_report.class_metrics[positive] == class_metrics(fixture20_report.confusion, positive)

    def test_cosine_tables_cover_expected_groups(self, fixture20_report):
        assert set(fixture20_report.cosine_monosemous_gold) == {"all", "noun", "adjective", "verb", "adverb"}
        assert fixture20_report.cosine_monosemous_gold["all"].count == 11
        assert set(fixture20_report.cosine_polysemous_gold) == {"all", "noun", "verb"}
        assert fixture20_report.cosine_polysemous_gold["all"].count == 5

    def test_polysemy_pairs_emitted_for_gen_polysemous(self, fixture20_report, tmp_path):
        lemmas = {p["lemma"] for p in read_jsonl(tmp_path / "eval" / "polysemy_pairs.jsonl")}
        assert lemmas == {"asaltador", "atropellado", "baboseo", "hablar"}

    def test_error_summary_embedded(self, fixture20_report):
        summary = fixture20_report.error_summary
        assert summary["hallucination_candidate"] == 2
        assert summary["fabricated_polysemy"] == 1
        assert summary["overcorrection"] == 1

    def test_circularity_rate_zero_on_fixture(self, fixture20_report):
        assert fixture20_report.circularity_rate == 0.0


class CountingEmbedder:
    """Every text points one way, the ``outliers`` at right angles; records each call."""

    identifier = "counting"

    def __init__(self, outliers=()):
        self.outliers = set(outliers)
        self.single_calls = 0
        self.batches = []

    def _vector(self, text):
        return np.array([0.0, 1.0]) if text in self.outliers else np.array([1.0, 0.0])

    def embed(self, text):
        self.single_calls += 1
        return self._vector(text)

    def embed_batch(self, texts):
        self.batches.append(list(texts))
        return [self._vector(t) for t in texts]


class TestEmbeddingPasses:
    def test_one_batch_without_hallucination_candidates(self, fixture20, tmp_path):
        embedder = CountingEmbedder()
        report = evaluate_dictionaries(*fixture20, embedder, tmp_path)
        assert report.error_summary["hallucination_candidate"] == 0
        assert embedder.single_calls == 0
        assert len(embedder.batches) == 1
        assert embedder.batches[0] == sorted(set(embedder.batches[0]))

    def test_second_batch_for_a_planted_candidate(self, fixture20, tmp_path):
        generated, gold = fixture20
        planted = generated.get("destace", PosCategory.NOUN)
        embedder = CountingEmbedder(outliers=[planted.senses[0].definition])
        report = evaluate_dictionaries(generated, gold, embedder, tmp_path)
        with open(tmp_path / "findings.jsonl", encoding="utf-8") as fh:
            findings = parse_findings(fh)
        candidates = {f.lemma for f in findings if f.category is ErrorCategory.HALLUCINATION_CANDIDATE}
        assert "destace" in candidates
        assert report.error_summary["overcorrection"] >= 1
        assert embedder.single_calls == 0
        assert len(embedder.batches) == 2
        assert all(batch == sorted(set(batch)) for batch in embedder.batches)
        assert planted.senses[0].definition in embedder.batches[-1]


class RecordingEmbedder(DeterministicEmbedder):
    """The deterministic embedder, recording each batch."""

    def __init__(self):
        super().__init__(EMBEDDER.dimension)
        self.batches = []

    def embed_batch(self, texts):
        self.batches.append(list(texts))
        return super().embed_batch(texts)


class TestKeyBlocks:
    @pytest.mark.parametrize(
        ("make_embedder", "candidates"),
        [
            pytest.param(lambda generated: RecordingEmbedder(), 1, id="deterministic"),
            pytest.param(lambda generated: CountingEmbedder(), 0, id="no-candidate"),
            pytest.param(
                lambda generated: CountingEmbedder(outliers=[generated.get("destace", PosCategory.NOUN).senses[0].definition]),
                1,
                id="planted-candidate",
            ),
        ],
    )
    def test_blocks_of_two_equal_one_block(self, fixture20, monkeypatch, tmp_path, make_embedder, candidates):
        generated, gold = fixture20
        whole = evaluate_dictionaries(generated, gold, make_embedder(generated), tmp_path / "whole")
        monkeypatch.setattr("lexiforge.report.KEY_BLOCK", 2)
        embedder = make_embedder(generated)
        evaluate_dictionaries(generated, gold, embedder, tmp_path / "blocked")
        assert outputs(tmp_path / "blocked") == outputs(tmp_path / "whole")
        assert (whole.error_summary["hallucination_candidate"] > 0) == bool(candidates)
        assert len(embedder.batches) == math.ceil(len(generated) / 2) + candidates
        assert all(batch == sorted(set(batch)) for batch in embedder.batches)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_entries_outside_the_join_keep_their_place(self, fixture20, monkeypatch, tmp_path, block):
        generated, gold = fixture20
        # generated-only entries, one with a duplicated sense, and a gold-only one, between the join's keys
        generated = make_dictionary(
            *generated.entries(),
            make_entry("abacería", "Nombre femenino", "Tienda de comestibles."),
            make_entry("babor", "Nombre masculino", "Lado izquierdo del barco.", "Lado izquierdo del barco."),
            make_entry("zurdo", "Adjetivo", "Que usa la mano izquierda.", "Que está a la izquierda."),
        )
        gold = make_dictionary(*gold.entries(), make_entry("cántaro", "Nombre masculino", "Vasija grande de barro."))
        whole = evaluate_dictionaries(generated, gold, EMBEDDER, tmp_path / "whole")
        assert whole.error_summary["fabricated_polysemy"] == 2  # babor's duplicate sense is found
        monkeypatch.setattr("lexiforge.report.KEY_BLOCK", block)
        embedder = RecordingEmbedder()
        evaluate_dictionaries(generated, gold, embedder, tmp_path / "blocked")
        assert outputs(tmp_path / "blocked") == outputs(tmp_path / "whole")
        assert all(batch == sorted(set(batch)) for batch in embedder.batches)


    @pytest.mark.parametrize("align_chunk", [1, 3])
    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_planted_fixture_with_its_failure_log(self, planted, data_dir, monkeypatch, tmp_path, block, align_chunk):
        generated, gold = planted
        with open(data_dir / "planted_failures.jsonl", encoding="utf-8") as fh:
            failures = parse_failures(fh)
        whole = evaluate_dictionaries(generated, gold, EMBEDDER, tmp_path / "whole", failures=failures)
        assert all(whole.error_summary.values())  # every category is found, the refusal among them
        monkeypatch.setattr("lexiforge.report.KEY_BLOCK", block)
        monkeypatch.setattr("lexiforge.alignment.ALIGN_CHUNK", align_chunk)
        evaluate_dictionaries(generated, gold, EMBEDDER, tmp_path / "blocked", failures=failures)
        assert outputs(tmp_path / "blocked") == outputs(tmp_path / "whole")


class TestCandidateBlocks:
    def test_blocks_of_one_equal_one_block(self, planted, monkeypatch, tmp_path):
        generated, gold = planted
        whole = evaluate_dictionaries(generated, gold, EMBEDDER, tmp_path / "whole")
        candidates = whole.error_summary["hallucination_candidate"]
        assert candidates > 1 and whole.error_summary["overcorrection"] >= 1
        monkeypatch.setattr("lexiforge.error_analysis.CANDIDATE_BLOCK", 1)
        embedder = RecordingEmbedder()
        evaluate_dictionaries(generated, gold, embedder, tmp_path / "blocked")
        assert outputs(tmp_path / "blocked") == outputs(tmp_path / "whole")
        assert len(embedder.batches) == math.ceil(len(generated) / KEY_BLOCK) + candidates

    @pytest.mark.parametrize("align_chunk", [1, 3])
    @pytest.mark.parametrize("candidate_block", [1, 64])
    def test_candidate_blocks_in_small_align_chunks(self, planted, monkeypatch, tmp_path, candidate_block, align_chunk):
        # every join pair is a candidate, and most have several near-spelled
        # neighbours of one sense count (eight in one block of 64), so the
        # over-correction scoring crosses align chunks
        near = tuple(make_dictionary(*entries) for entries in planted_overcorrections())
        config = ErrorAnalysisConfig(hallucination_threshold=1.0)
        for name, (generated, gold) in {"planted": planted, "near": near}.items():
            whole = evaluate_dictionaries(generated, gold, EMBEDDER, tmp_path / name / "whole", error_config=config)
            assert whole.error_summary["overcorrection"] >= 1
            with monkeypatch.context() as patched:
                patched.setattr("lexiforge.error_analysis.CANDIDATE_BLOCK", candidate_block)
                patched.setattr("lexiforge.alignment.ALIGN_CHUNK", align_chunk)
                evaluate_dictionaries(generated, gold, EMBEDDER, tmp_path / name / "blocked", error_config=config)
            assert outputs(tmp_path / name / "blocked") == outputs(tmp_path / name / "whole")
        assert whole.error_summary["overcorrection"] == 4


class ScaledPerText:
    """Deterministic vectors stretched by a per-text factor, so rows need normalising."""

    identifier = "scaled"

    def embed(self, text):
        return embed_deterministic(text, EMBEDDER.dimension) * (1.0 + len(text) % 7)

    def embed_batch(self, texts):
        return [self.embed(t) for t in texts]


class TestScoreParity:
    def test_scores_match_cosine_of_raw_vectors(self, fixture20, tmp_path):
        generated, gold = fixture20
        embedder = ScaledPerText()
        evaluate_dictionaries(generated, gold, embedder, tmp_path)

        def cosine(gen_sense, gold_sense):
            raw = [embedder.embed(s.definition) for s in (gen_sense, gold_sense)]
            return cosine_similarity(*raw)

        records = read_jsonl(tmp_path / "alignments.jsonl")
        assert len(records) == 20
        for record in records:
            key = (record["lemma"], PosCategory(record["category"]))
            gen, gold_entry = generated.get(*key), gold.get(*key)
            for score, gold_sense in zip(record["per_gold_scores"], gold_entry.senses, strict=True):
                assert abs(score - cosine(gen.senses[0], gold_sense)) <= 1e-12
        pairs = read_jsonl(tmp_path / "polysemy_pairs.jsonl")
        assert pairs
        for pair in pairs:
            key = (pair["lemma"], PosCategory(pair["category"]))
            gen, gold_entry = generated.get(*key), gold.get(*key)
            assert len(pair["scores"]) == len(gen.senses)
            for row, gen_sense in zip(pair["scores"], gen.senses):
                for score, gold_sense in zip(row, gold_entry.senses, strict=True):
                    assert abs(score - cosine(gen_sense, gold_sense)) <= 1e-12

    def test_examples_never_move_a_score(self, fixture20, tmp_path):
        generated, gold = fixture20
        assert any(s.example for entry in generated.entries() for s in entry.senses)

        def without_examples(dictionary):
            return Dictionary(
                dataclasses.replace(entry, senses=tuple(dataclasses.replace(s, example=None) for s in entry.senses))
                for entry in dictionary.entries()
            )

        evaluate_dictionaries(generated, gold, EMBEDDER, tmp_path / "parsed")
        evaluate_dictionaries(without_examples(generated), without_examples(gold), EMBEDDER, tmp_path / "stripped")
        assert outputs(tmp_path / "stripped") == outputs(tmp_path / "parsed")


class TestCircularityRate:
    def _rate(self, dictionary, out_dir):
        return evaluate_dictionaries(dictionary, dictionary, EMBEDDER, out_dir).circularity_rate

    def test_clean_dictionary(self, tmp_path):
        d = make_dictionary(make_entry("gato", "Nombre masculino", "Felino doméstico."))
        assert self._rate(d, tmp_path) == 0.0

    def test_one_of_four(self, tmp_path):
        d = make_dictionary(
            make_entry("gato", "Nombre masculino", "Un gato es un felino."),
            make_entry("perro", "Nombre masculino", "Mamífero doméstico."),
            make_entry("sal", "Nombre femenino", "Cloruro de sodio."),
            make_entry("sol", "Nombre masculino", "Estrella central."),
        )
        assert self._rate(d, tmp_path) == 0.25

    def test_empty_dictionary(self, tmp_path):
        assert self._rate(Dictionary([]), tmp_path) == 0.0


class TestReportSerialization:
    def test_round_trip(self, fixture20_report, tmp_path):
        path = tmp_path / "report.json"
        write_to(fixture20_report, path)
        loaded = load_report(path)
        assert loaded == fixture20_report

    def test_write_is_deterministic(self, fixture20_report, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_to(fixture20_report, a)
        write_to(fixture20_report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_is_self_contained_json(self, fixture20_report, tmp_path):
        path = tmp_path / "report.json"
        write_to(fixture20_report, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert list(data) == [
            "join_size",
            "skipped_keys",
            "confusion",
            "class_metrics",
            "cosine_monosemous_gold",
            "cosine_polysemous_gold",
            "length_stats",
            "rank_histogram",
            "error_summary",
            "circularity_rate",
            "config",
            "provenance",
        ]
        assert data["skipped_keys"] == 0


def reference_report() -> EvaluationReport:
    confusion = ConfusionMatrix2x2(mono_mono=49_114, mono_poly=699, poly_mono=24_444, poly_poly=2_706)
    return EvaluationReport(
        join_size=confusion.total,
        confusion=confusion,
        class_metrics={
            "monosemy": class_metrics(confusion, "monosemy"),
            "polysemy": class_metrics(confusion, "polysemy"),
        },
        cosine_monosemous_gold={},
        cosine_polysemous_gold={},
        length_generated={},
        length_gold={},
        rank_histogram={},
        error_summary={},
        circularity_rate=0.0,
    )


class TestRenderTables:
    def test_csv_files_written(self, fixture20_report, tmp_path):
        written = render_tables(fixture20_report, "csv", tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "figure1.csv",
            "table1.csv",
            "table2.csv",
            "table3.csv",
            "table4.csv",
            "table5.csv",
        ]

    def test_table1_includes_marginals(self, fixture20_report, tmp_path):
        render_tables(fixture20_report, "csv", tmp_path)
        rows = (tmp_path / "tables" / "table1.csv").read_text().splitlines()
        assert rows[1] == "Monosemy,11,1,12"
        assert rows[2] == "Polysemy,5,3,8"
        assert rows[3] == "Total,16,4,20"

    def test_table2_shows_published_values(self, tmp_path):
        render_tables(reference_report(), "csv", tmp_path)
        rows = (tmp_path / "tables" / "table2.csv").read_text().splitlines()
        assert rows[1] == "Monosemy,0.668,0.986,0.796"
        assert rows[2].startswith("Polysemy,0.795,0.100,0.177")

    def test_empty_join_renders_na(self, tmp_path):
        report = reference_report()
        render_tables(report, "csv", tmp_path)
        table3 = (tmp_path / "tables" / "table3.csv").read_text().splitlines()
        assert table3[1] == "All,n/a,n/a"

    def test_markdown_layout(self, fixture20_report, tmp_path):
        render_tables(fixture20_report, "md", tmp_path)
        text = (tmp_path / "tables" / "table3.md").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("| POS tag | Mean | Std Dev |")
        assert [line.split("|")[1].strip() for line in lines[2:]] == [
            "All",
            "Nouns",
            "Adjectives",
            "Verbs",
            "Adverbs",
        ]

    def test_json_single_file(self, fixture20_report, tmp_path):
        written = render_tables(fixture20_report, "json", tmp_path)
        assert [p.name for p in written] == ["tables.json"]
        data = json.loads(written[0].read_text(encoding="utf-8"))
        assert set(data) == {"table1", "table2", "table3", "table4", "table5", "figure1"}

    def test_figure1_rows(self, fixture20_report, tmp_path):
        render_tables(fixture20_report, "csv", tmp_path)
        rows = (tmp_path / "tables" / "figure1.csv").read_text().splitlines()
        assert rows == ["best_gold_index,count", "1,2", "2,3"]

    def test_unknown_format_rejected(self, fixture20_report, tmp_path):
        with pytest.raises(ValueError):
            render_tables(fixture20_report, "xlsx", tmp_path)


class TestAtomicWrite:
    def test_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_text(target) as (fh,):
                fh.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_text(target) as (fh,):
            fh.write("new")
        assert target.read_text() == "new"

    def test_failure_leaves_every_target_as_it_was(self, tmp_path):
        first, second = tmp_path / "first.txt", tmp_path / "sub" / "second.txt"
        first.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_text(first, second) as (first_fh, second_fh):
                first_fh.write("new")
                second_fh.write("new")
                raise RuntimeError("boom")
        assert first.read_text() == "old" and not second.exists()
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["first.txt", "sub"]

    def test_first_path_is_renamed_last(self, tmp_path, monkeypatch):
        renamed = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: (renamed.append(Path(dst).name), real_replace(src, dst)))
        with atomic_text(*(tmp_path / name for name in ("a", "b", "c"))) as streams:
            for fh in streams:
                fh.write("x")
        assert renamed == ["c", "b", "a"]
