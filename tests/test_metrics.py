import random

import pytest

from lexiforge.metrics import (
    ClassMetrics,
    ConfusionMatrix2x2,
    StatsSummary,
    class_metrics,
    cosine_stats,
    cosine_values,
    length_stats,
    polysemy_confusion,
)
from lexiforge.model import PosCategory, vocabulary_join

from _oracles import oracle_population_stats
from conftest import make_alignment, make_dictionary, make_entry

# Table 1 cells: (actual, predicted) with actual = gold, predicted = generated
REFERENCE_MATRIX = ConfusionMatrix2x2(mono_mono=49_114, mono_poly=699, poly_mono=24_444, poly_poly=2_706)


def record(lemma, category, gen_count, scores):
    return (lemma, category, gen_count, scores)


def cosine_tables(records, blocks=1):
    """``cosine_stats`` of *records* split into *blocks* alignments of about equal size."""
    size = -(-len(records) // blocks)
    return cosine_stats(cosine_values(make_alignment(*records[i : i + size])) for i in range(0, len(records), size))


class TestConfusionMatrix:
    def test_reference_marginals_exact(self):
        m = REFERENCE_MATRIX
        assert m.actual_mono == 49_813
        assert m.actual_poly == 27_150
        assert m.pred_mono == 73_558
        assert m.pred_poly == 3_405
        assert m.total == 76_963

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix2x2(-1, 0, 0, 0)

    def test_six_key_fixture(self):
        # gold: 4 mono + 2 poly; generated monosemous on 5 keys incl. 1 gold-poly
        gold = make_dictionary(
            make_entry("a", "Verbo", "Uno."),
            make_entry("b", "Verbo", "Dos."),
            make_entry("c", "Verbo", "Tres."),
            make_entry("d", "Verbo", "Cuatro."),
            make_entry("e", "Verbo", "Cinco.", "Seis."),
            make_entry("f", "Verbo", "Siete.", "Ocho."),
        )
        generated = make_dictionary(
            make_entry("a", "Verbo", "Uno bis."),
            make_entry("b", "Verbo", "Dos bis."),
            make_entry("c", "Verbo", "Tres bis."),
            make_entry("d", "Verbo", "Cuatro bis."),
            make_entry("e", "Verbo", "Cinco bis."),
            make_entry("f", "Verbo", "Siete bis.", "Ocho bis."),
        )
        matrix = polysemy_confusion(generated, gold, vocabulary_join(generated, gold))
        # hand-classified: gold-mono all predicted mono; e poly->mono; f poly->poly
        assert matrix == ConfusionMatrix2x2(mono_mono=4, mono_poly=0, poly_mono=1, poly_poly=1)
        assert matrix.total == 6

    def test_empty_join_all_zero(self):
        gold = make_dictionary(make_entry("a", "Verbo", "Uno."))
        generated = make_dictionary(make_entry("b", "Verbo", "Dos."))
        matrix = polysemy_confusion(generated, gold, vocabulary_join(generated, gold))
        assert matrix == ConfusionMatrix2x2(0, 0, 0, 0)


class TestClassMetrics:
    def test_reference_monosemy_row(self):
        cm = class_metrics(REFERENCE_MATRIX, "monosemy")
        assert cm.precision == pytest.approx(0.668, abs=0.002)
        assert cm.recall == pytest.approx(0.986, abs=0.002)
        assert cm.f1 == pytest.approx(0.798, abs=0.002)
        assert not cm.degenerate

    def test_reference_polysemy_row(self):
        cm = class_metrics(REFERENCE_MATRIX, "polysemy")
        assert cm.precision == pytest.approx(0.795, abs=0.002)
        # the cells themselves derive to 0.0997; the published table rounds to 0.098
        assert cm.recall == pytest.approx(2_706 / 27_150, abs=1e-12)
        assert cm.recall == pytest.approx(0.098, abs=0.002)
        assert cm.f1 == pytest.approx(0.177, abs=0.002)

    def test_exact_rational_arithmetic(self):
        cm = class_metrics(ConfusionMatrix2x2(1, 1, 1, 1), "monosemy")
        assert cm.precision == 0.5 and cm.recall == 0.5 and cm.f1 == 0.5

    def test_all_zero_matrix_degenerate(self):
        cm = class_metrics(ConfusionMatrix2x2(0, 0, 0, 0), "monosemy")
        assert cm == ClassMetrics(0.0, 0.0, 0.0, degenerate=True)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            class_metrics(REFERENCE_MATRIX, "both")

    def test_recall_complement_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            matrix = ConfusionMatrix2x2(*(rng.randint(0, 500) for _ in range(4)))
            if matrix.actual_mono == 0:
                continue
            cm = class_metrics(matrix, "monosemy")
            misclassified = matrix.mono_poly / matrix.actual_mono
            assert cm.recall + misclassified == pytest.approx(1.0, abs=1e-12)


class TestCosineStats:
    def test_equal_scores_zero_std(self):
        records = [
            record("a", PosCategory.NOUN, 1, [0.5]),
            record("b", PosCategory.NOUN, 1, [0.5]),
        ]
        summary = cosine_tables(records)[0]["all"]
        assert summary == StatsSummary(count=2, mean=0.5, std_dev=0.0)

    def test_population_formula_by_hand(self):
        records = [
            record("a", PosCategory.VERB, 1, [0.2]),
            record("b", PosCategory.VERB, 1, [0.6]),
        ]
        summary = cosine_tables(records)[0]["all"]
        # mean (0.2+0.6)/2 = 0.4; deviations ±0.2 -> population std 0.2
        assert summary.mean == pytest.approx(0.4)
        assert summary.std_dev == pytest.approx(0.2)

    def test_oracle_parity_on_mixed_records(self):
        rng = random.Random(3)
        records = [
            record(f"l{i}", PosCategory.ADJECTIVE, 1, [round(rng.random(), 3) for _ in range(3)])
            for i in range(25)
        ]
        summary = cosine_tables(records)[1]["all"]
        mean, std = oracle_population_stats([sum(scores) / len(scores) for *_, scores in records])
        assert summary.mean == pytest.approx(mean, abs=1e-12)
        assert summary.std_dev == pytest.approx(std, abs=1e-12)

    def test_gold_filter_split(self):
        records = [
            record("a", PosCategory.NOUN, 1, [0.9]),
            record("b", PosCategory.NOUN, 1, [0.1, 0.7]),
        ]
        mono, poly = cosine_tables(records)
        assert mono["all"].count == 1 and poly["all"].count == 1
        assert mono["all"].mean == pytest.approx(0.9)
        assert poly["all"].mean == pytest.approx(0.4)  # mean over gold, not the best score

    def test_groups_by_pos(self):
        records = [
            record("a", PosCategory.NOUN, 1, [0.4]),
            record("b", PosCategory.ADVERB, 1, [0.8]),
        ]
        stats = cosine_tables(records)[0]
        assert set(stats) == {"all", "noun", "adverb"}
        assert stats["adverb"].mean == pytest.approx(0.8)

    def test_permutation_invariant(self):
        rng = random.Random(9)
        records = [record(f"l{i}", PosCategory.NOUN, 1, [rng.random()]) for i in range(30)]
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert cosine_tables(records) == cosine_tables(shuffled)

    def test_generated_polysemous_excluded(self):
        records = [record("a", PosCategory.NOUN, 1, [0.4]), record("b", PosCategory.NOUN, 2, [0.8])]
        mono, poly = cosine_tables(records)
        assert mono["all"] == StatsSummary(count=1, mean=0.4, std_dev=0.0) and poly == {}

    def test_groups_in_order_of_first_pair_across_blocks(self):
        records = [
            record("a", PosCategory.VERB, 1, [0.1, 0.2]),
            record("b", PosCategory.ADVERB, 1, [0.3]),
            record("c", PosCategory.NOUN, 1, [0.5]),
            record("d", PosCategory.ADVERB, 1, [0.7, 0.1]),
            record("e", PosCategory.VERB, 1, [0.9]),
        ]
        for blocks in (1, 2, 5):
            mono, poly = cosine_tables(records, blocks)
            assert list(mono) == ["all", "adverb", "noun", "verb"] and list(poly) == ["all", "verb", "adverb"]
            assert (mono, poly) == cosine_tables(records)


class TestLengthStats:
    def test_word_count_by_hand(self):
        d = make_dictionary(
            make_entry("limitadamente", "Adverbio", "De una manera limitada o con restricciones")
        )
        stats = length_stats(d)["all"]
        assert stats.words == StatsSummary(count=1, mean=7.0, std_dev=0.0)
        assert stats.characters == StatsSummary(count=1, mean=42.0, std_dev=0.0)

    def test_per_sense_accounting(self):
        d = make_dictionary(make_entry("x", "Verbo", "Una dos.", "Una dos tres cuatro."))
        stats = length_stats(d)["all"]
        assert stats.words.count == 2
        assert stats.words.mean == pytest.approx(3.0)

    def test_group_rows(self, fixture20):
        generated, _ = fixture20
        stats = length_stats(generated)
        assert set(stats) == {"all", "noun", "adjective", "verb", "adverb"}
        total_senses = sum(len(e.senses) for e in generated.entries())
        assert stats["all"].words.count == total_senses


    def test_empty_dictionary_has_no_groups(self):
        assert length_stats(make_dictionary()) == {}

    def test_groups_are_all_then_categories_in_first_appearance_order(self):
        d = make_dictionary(
            make_entry("correr", "Verbo", "Ir deprisa."),
            make_entry("casa", "Nombre femenino", "Edificio."),
            make_entry("andar", "Verbo", "Ir a pie."),
        )
        assert list(length_stats(d)) == ["all", "verb", "noun"]
