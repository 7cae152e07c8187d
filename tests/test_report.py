import json
import math

import numpy as np
import pytest

from lexiforge.alignment import sense_text
from lexiforge.embedding import DeterministicEmbedder, embed_deterministic
from lexiforge.error_analysis import ErrorCategory
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

EMBEDDER = DeterministicEmbedder(dimension=512)


@pytest.fixture
def fixture20_result(fixture20):
    generated, gold = fixture20
    return evaluate_dictionaries(generated, gold, EMBEDDER)


class TestEvaluateDictionaries:
    def test_confusion_matches_hand_classification(self, fixture20_result):
        report = fixture20_result.report
        assert report.join_size == 20
        assert report.confusion == ConfusionMatrix2x2(mono_mono=11, mono_poly=1, poly_mono=5, poly_poly=3)

    def test_rank_histogram(self, fixture20_result):
        assert fixture20_result.report.rank_histogram == {1: 2, 2: 3}

    def test_class_metrics_rederivable_from_cells(self, fixture20_result):
        report = fixture20_result.report
        for positive in ("monosemy", "polysemy"):
            assert report.class_metrics[positive] == class_metrics(report.confusion, positive)

    def test_cosine_tables_cover_expected_groups(self, fixture20_result):
        report = fixture20_result.report
        assert set(report.cosine_monosemous_gold) == {"all", "noun", "adjective", "verb", "adverb"}
        assert report.cosine_monosemous_gold["all"].count == 11
        assert set(report.cosine_polysemous_gold) == {"all", "noun", "verb"}
        assert report.cosine_polysemous_gold["all"].count == 5

    def test_polysemy_pairs_emitted_for_gen_polysemous(self, fixture20_result):
        lemmas = {p["lemma"] for p in fixture20_result.polysemy_pairs}
        assert lemmas == {"asaltador", "atropellado", "baboseo", "hablar"}

    def test_error_summary_embedded(self, fixture20_result):
        summary = fixture20_result.report.error_summary
        assert summary["hallucination_candidate"] == 2
        assert summary["fabricated_polysemy"] == 1
        assert summary["overcorrection"] == 1

    def test_circularity_rate_zero_on_fixture(self, fixture20_result):
        assert fixture20_result.report.circularity_rate == 0.0


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
    def test_one_batch_without_hallucination_candidates(self, fixture20):
        embedder = CountingEmbedder()
        result = evaluate_dictionaries(*fixture20, embedder)
        assert result.report.error_summary["hallucination_candidate"] == 0
        assert embedder.single_calls == 0
        assert len(embedder.batches) == 1
        assert embedder.batches[0] == sorted(set(embedder.batches[0]))

    def test_second_batch_for_a_planted_candidate(self, fixture20):
        generated, gold = fixture20
        planted = generated.get("destace", PosCategory.NOUN)
        embedder = CountingEmbedder(outliers=[planted.senses[0].definition])
        result = evaluate_dictionaries(generated, gold, embedder)
        candidates = {f.lemma for f in result.errors.findings if f.category is ErrorCategory.HALLUCINATION_CANDIDATE}
        assert "destace" in candidates
        assert result.report.error_summary["overcorrection"] >= 1
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


def outputs(result):
    return result.report.to_dict(), result.records, result.polysemy_pairs, result.errors.findings


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
    def test_blocks_of_two_equal_one_block(self, fixture20, monkeypatch, make_embedder, candidates):
        generated, gold = fixture20
        whole = evaluate_dictionaries(generated, gold, make_embedder(generated))
        monkeypatch.setattr("lexiforge.report.KEY_BLOCK", 2)
        embedder = make_embedder(generated)
        blocked = evaluate_dictionaries(generated, gold, embedder)
        assert outputs(blocked) == outputs(whole)
        assert (whole.report.error_summary["hallucination_candidate"] > 0) == bool(candidates)
        assert len(embedder.batches) == math.ceil(len(generated) / 2) + candidates
        assert all(batch == sorted(set(batch)) for batch in embedder.batches)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_entries_outside_the_join_keep_their_place(self, fixture20, monkeypatch, block):
        generated, gold = fixture20
        # generated-only entries, one with a duplicated sense, and a gold-only one, between the join's keys
        generated.add(make_entry("abacería", "Nombre femenino", "Tienda de comestibles."))
        generated.add(make_entry("babor", "Nombre masculino", "Lado izquierdo del barco.", "Lado izquierdo del barco."))
        generated.add(make_entry("zurdo", "Adjetivo", "Que usa la mano izquierda.", "Que está a la izquierda."))
        gold.add(make_entry("cántaro", "Nombre masculino", "Vasija grande de barro."))
        whole = evaluate_dictionaries(generated, gold, EMBEDDER)
        assert whole.report.error_summary["fabricated_polysemy"] == 2  # babor's duplicate sense is found
        monkeypatch.setattr("lexiforge.report.KEY_BLOCK", block)
        embedder = RecordingEmbedder()
        assert outputs(evaluate_dictionaries(generated, gold, embedder)) == outputs(whole)
        assert all(batch == sorted(set(batch)) for batch in embedder.batches)


class TestCandidateBlocks:
    def test_blocks_of_one_equal_one_block(self, planted, monkeypatch):
        generated, gold = planted
        whole = evaluate_dictionaries(generated, gold, EMBEDDER)
        candidates = whole.report.error_summary["hallucination_candidate"]
        assert candidates > 1 and whole.report.error_summary["overcorrection"] >= 1
        monkeypatch.setattr("lexiforge.error_analysis.CANDIDATE_BLOCK", 1)
        embedder = RecordingEmbedder()
        blocked = evaluate_dictionaries(generated, gold, embedder)
        assert outputs(blocked) == outputs(whole)
        assert len(embedder.batches) == math.ceil(len(generated) / KEY_BLOCK) + candidates


class ScaledPerText:
    """Deterministic vectors stretched by a per-text factor, so rows need normalising."""

    identifier = "scaled"

    def embed(self, text):
        return embed_deterministic(text, EMBEDDER.dimension) * (1.0 + len(text) % 7)

    def embed_batch(self, texts):
        return [self.embed(t) for t in texts]


class TestScoreParity:
    @pytest.mark.parametrize("include_examples", [False, True])
    def test_scores_match_cosine_of_raw_vectors(self, fixture20, include_examples):
        generated, gold = fixture20
        embedder = ScaledPerText()
        result = evaluate_dictionaries(generated, gold, embedder, include_examples=include_examples)

        def cosine(gen_sense, gold_sense):
            raw = [embedder.embed(sense_text(s, include_examples)) for s in (gen_sense, gold_sense)]
            return cosine_similarity(*raw)

        for record in result.records:
            gen = generated.get(record.lemma, record.category)
            gold_entry = gold.get(record.lemma, record.category)
            for score, gold_sense in zip(record.per_gold_scores, gold_entry.senses, strict=True):
                assert abs(score - cosine(gen.senses[0], gold_sense)) <= 1e-12
        assert result.polysemy_pairs
        for pair in result.polysemy_pairs:
            key = (pair["lemma"], PosCategory(pair["category"]))
            gen, gold_entry = generated.get(*key), gold.get(*key)
            assert len(pair["scores"]) == len(gen.senses)
            for row, gen_sense in zip(pair["scores"], gen.senses):
                for score, gold_sense in zip(row, gold_entry.senses, strict=True):
                    assert abs(score - cosine(gen_sense, gold_sense)) <= 1e-12


class TestCircularityRate:
    def _rate(self, dictionary):
        return evaluate_dictionaries(dictionary, dictionary, EMBEDDER).report.circularity_rate

    def test_clean_dictionary(self):
        d = make_dictionary("d", make_entry("gato", "Nombre masculino", "Felino doméstico."))
        assert self._rate(d) == 0.0

    def test_one_of_four(self):
        d = make_dictionary(
            "d",
            make_entry("gato", "Nombre masculino", "Un gato es un felino."),
            make_entry("perro", "Nombre masculino", "Mamífero doméstico."),
            make_entry("sal", "Nombre femenino", "Cloruro de sodio."),
            make_entry("sol", "Nombre masculino", "Estrella central."),
        )
        assert self._rate(d) == 0.25

    def test_empty_dictionary(self):
        assert self._rate(Dictionary(name="empty")) == 0.0


class TestReportSerialization:
    def test_round_trip(self, fixture20_result, tmp_path):
        path = tmp_path / "report.json"
        write_report(fixture20_result.report, path)
        loaded = load_report(path)
        assert loaded == fixture20_result.report

    def test_write_is_deterministic(self, fixture20_result, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(fixture20_result.report, a)
        write_report(fixture20_result.report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_is_self_contained_json(self, fixture20_result, tmp_path):
        path = tmp_path / "report.json"
        write_report(fixture20_result.report, path)
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
    def test_csv_files_written(self, fixture20_result, tmp_path):
        written = render_tables(fixture20_result.report, "csv", tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "figure1.csv",
            "table1.csv",
            "table2.csv",
            "table3.csv",
            "table4.csv",
            "table5.csv",
        ]

    def test_table1_includes_marginals(self, fixture20_result, tmp_path):
        render_tables(fixture20_result.report, "csv", tmp_path)
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

    def test_markdown_layout(self, fixture20_result, tmp_path):
        render_tables(fixture20_result.report, "md", tmp_path)
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

    def test_json_single_file(self, fixture20_result, tmp_path):
        written = render_tables(fixture20_result.report, "json", tmp_path)
        assert [p.name for p in written] == ["tables.json"]
        data = json.loads(written[0].read_text(encoding="utf-8"))
        assert set(data) == {"table1", "table2", "table3", "table4", "table5", "figure1"}

    def test_figure1_rows(self, fixture20_result, tmp_path):
        render_tables(fixture20_result.report, "csv", tmp_path)
        rows = (tmp_path / "tables" / "figure1.csv").read_text().splitlines()
        assert rows == ["best_gold_index,count", "1,2", "2,3"]

    def test_unknown_format_rejected(self, fixture20_result, tmp_path):
        with pytest.raises(ValueError):
            render_tables(fixture20_result.report, "xlsx", tmp_path)


class TestAtomicWrite:
    def test_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_text(target) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_text(target) as fh:
            fh.write("new")
        assert target.read_text() == "new"
