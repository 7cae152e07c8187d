import io

import numpy as np
import pytest

from lexiforge.alignment import (
    AlignmentRecord,
    align_dictionaries,
    all_pairs_scores,
    parse_alignments,
    rank_histogram,
    write_alignments,
)
from lexiforge.embedding import DeterministicEmbedder, embed_deterministic
from lexiforge.exceptions import KeyMismatchError
from lexiforge.model import PosCategory, vocabulary_join

from conftest import make_dictionary, make_entry, vector_table

EMBEDDER = DeterministicEmbedder(dimension=256)


class FixedEmbedder:
    """Maps texts to preset vectors; for tie-break and scaling tests."""

    identifier = "fixed"

    def __init__(self, table):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}

    def embed(self, text):
        return self.table[text]

    def embed_batch(self, texts):
        return [self.embed(t) for t in texts]


class ScaledEmbedder:
    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = factor
        self.identifier = f"scaled-{factor}"

    def embed(self, text):
        return embed_deterministic(text, self.inner.dimension) * self.factor

    def embed_batch(self, texts):
        return [self.embed(t) for t in texts]


def align_one(gen, gold, embedder=EMBEDDER, include_examples=False):
    """Record of a one-key generated dictionary aligned against a one-key gold dictionary."""
    vectors = vector_table(embedder, [gen, gold], include_examples)
    records, skipped = align_dictionaries(
        make_dictionary("generated", gen), make_dictionary("gold", gold), vectors, [gen.key], include_examples
    )
    assert skipped == 0 and len(records) == 1
    return records[0]


def align_fixture(generated, gold, keys, embedder=EMBEDDER):
    vectors = vector_table(embedder, generated.entries() + gold.entries())
    return align_dictionaries(generated, gold, vectors, keys)


class TestAlignEntry:
    """Alignment of a single join key."""

    def test_exact_copy_wins_with_score_one(self):
        gen = make_entry("faro", "Nombre masculino", "Torre con luz para guiar embarcaciones.")
        gold = make_entry(
            "faro",
            "Nombre masculino",
            "Torre con luz para guiar embarcaciones.",
            "Artefacto luminoso delantero de un vehículo.",
        )
        record = align_one(gen, gold)
        assert record.best_gold_index == 1
        assert abs(record.best_score - 1.0) < 1e-9
        assert record.gold_sense_count == 2

    def test_singleton_gold_mean_equals_best(self):
        gen = make_entry("sal", "Nombre femenino", "Sustancia blanca usada para sazonar.")
        gold = make_entry("sal", "Nombre femenino", "Cloruro de sodio.")
        record = align_one(gen, gold)
        assert record.best_gold_index == 1
        assert record.mean_over_gold == record.best_score
        assert len(record.per_gold_scores) == 1

    def test_tie_breaks_toward_lowest_index(self):
        table = {
            "gen": [1.0, 0.0],
            "igual uno": [1.0, 0.0],
            "igual dos": [1.0, 0.0],
        }
        gen = make_entry("par", "Nombre masculino", "gen")
        gold = make_entry("par", "Nombre masculino", "igual uno", "igual dos")
        record = align_one(gen, gold, FixedEmbedder(table))
        assert record.best_gold_index == 1

    def test_polysemous_generated_uses_first_sense(self):
        gen = make_entry("hoja", "Nombre femenino", "Lámina delgada de papel.", "Órgano verde de las plantas.")
        gold = make_entry("hoja", "Nombre femenino", "Lámina delgada de papel.")
        record = align_one(gen, gold)
        assert abs(record.best_score - 1.0) < 1e-9
        assert record.gen_sense_count == 2

    def test_record_invariants(self):
        gen = make_entry("mar", "Nombre masculino", "Gran masa de agua salada.")
        gold = make_entry("mar", "Nombre masculino", "Masa de agua salada.", "Abundancia de algo.", "Oleaje.")
        record = align_one(gen, gold)
        assert min(record.per_gold_scores) <= record.mean_over_gold <= record.best_score <= 1.0 + 1e-9
        assert record.best_score == max(record.per_gold_scores)

    def test_adverb_pair_singleton_record(self):
        gen = make_entry("parcamente", "Adverbio", "De manera escasa o limitada.")
        gold = make_entry("parcamente", "Adverbio", "De manera parca.")
        record = align_one(gen, gold)
        assert len(record.per_gold_scores) == 1
        assert record.best_gold_index == 1
        assert record.best_score == record.mean_over_gold == record.per_gold_scores[0]
        assert -1.0 - 1e-9 <= record.best_score <= 1.0 + 1e-9

    def test_include_examples_changes_text(self):
        gen = make_entry("rio", "Nombre masculino", ("Corriente natural de agua.", "El rio baja crecido."))
        gold = make_entry("rio", "Nombre masculino", ("Corriente natural de agua.", "Nada distinto."))
        with_examples = align_one(gen, gold, include_examples=True)
        without = align_one(gen, gold, include_examples=False)
        assert abs(without.best_score - 1.0) < 1e-9
        assert with_examples.best_score < without.best_score


class TestAlignmentRecordValidation:
    def test_rejects_inconsistent_best(self):
        with pytest.raises(ValueError):
            AlignmentRecord(
                lemma="x",
                category=PosCategory.NOUN,
                gen_sense_count=1,
                gold_sense_count=2,
                best_gold_index=1,
                best_score=0.1,
                mean_over_gold=0.3,
                per_gold_scores=(0.1, 0.5),
            )

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ValueError):
            AlignmentRecord(
                lemma="x",
                category=PosCategory.NOUN,
                gen_sense_count=1,
                gold_sense_count=1,
                best_gold_index=2,
                best_score=0.5,
                mean_over_gold=0.5,
                per_gold_scores=(0.5,),
            )


class TestAlignDictionaries:
    def test_fixture20_arity_and_order(self, fixture20):
        generated, gold = fixture20
        keys = vocabulary_join(generated, gold)
        records, skipped = align_fixture(generated, gold, keys)
        assert len(records) == 20 and skipped == 0
        assert [(r.lemma, r.category.value) for r in records] == [
            (lemma, cat.value) for lemma, cat in keys
        ]

    def test_missing_key_skipped_with_count(self, fixture20):
        generated, gold = fixture20
        keys = vocabulary_join(generated, gold) + [("inexistente", PosCategory.NOUN)]
        records, skipped = align_fixture(generated, gold, keys)
        assert len(records) == 20 and skipped == 1

    def test_empty_join(self, fixture20):
        generated, gold = fixture20
        records, skipped = align_fixture(generated, gold, [])
        assert records == [] and skipped == 0

    def test_rerun_is_byte_identical(self, fixture20):
        generated, gold = fixture20
        keys = vocabulary_join(generated, gold)
        outputs = []
        for _ in range(2):
            records, _ = align_fixture(generated, gold, keys)
            out = io.StringIO()
            write_alignments(records, out)
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]

    def test_argmax_invariant_under_positive_scaling(self, fixture20):
        generated, gold = fixture20
        keys = vocabulary_join(generated, gold)
        base, _ = align_fixture(generated, gold, keys)
        scaled, _ = align_fixture(generated, gold, keys, ScaledEmbedder(EMBEDDER, 7.5))
        for a, b in zip(base, scaled):
            assert a.best_gold_index == b.best_gold_index
            assert abs(a.best_score - b.best_score) < 1e-9


class TestAllPairs:
    def test_matrix_shape(self):
        gen = make_entry("hoja", "Nombre femenino", "Lámina de papel.", "Órgano de las plantas.")
        gold = make_entry("hoja", "Nombre femenino", "Órgano verde y plano.", "Lámina delgada.", "Cuchilla.")
        matrix = all_pairs_scores(gen, gold, vector_table(EMBEDDER, [gen, gold]))
        assert len(matrix) == 2 and all(len(row) == 3 for row in matrix)

    def test_key_mismatch_raises(self):
        gen = make_entry("sal", "Nombre femenino", "Sustancia blanca.")
        gold = make_entry("sol", "Nombre masculino", "Estrella.")
        with pytest.raises(KeyMismatchError):
            all_pairs_scores(gen, gold, vector_table(EMBEDDER, [gen, gold]))


class TestRankHistogram:
    def _record(self, lemma, best_index, gold_count):
        scores = [0.1] * gold_count
        scores[best_index - 1] = 0.9
        return AlignmentRecord(
            lemma=lemma,
            category=PosCategory.NOUN,
            gen_sense_count=1,
            gold_sense_count=gold_count,
            best_gold_index=best_index,
            best_score=0.9,
            mean_over_gold=sum(scores) / len(scores),
            per_gold_scores=tuple(scores),
        )

    def test_counts(self):
        records = [self._record("a", 1, 3), self._record("b", 1, 2), self._record("c", 2, 2)]
        assert rank_histogram(records) == {1: 2, 2: 1}

    def test_singleton_gold_excluded(self):
        records = [self._record("a", 1, 1), self._record("b", 1, 1)]
        assert rank_histogram(records) == {}

    def test_constructed_decreasing_counts(self):
        records = []
        for index, count in ((1, 10), (2, 5), (3, 2)):
            records.extend(self._record(f"l{index}x{i}", index, 3) for i in range(count))
        histogram = rank_histogram(records)
        assert histogram == {1: 10, 2: 5, 3: 2}
        counts = [histogram[i] for i in sorted(histogram)]
        assert counts == sorted(counts, reverse=True)

    def test_count_conservation(self):
        records = [self._record("a", 2, 4), self._record("b", 1, 2), self._record("c", 1, 1)]
        histogram = rank_histogram(records)
        assert sum(histogram.values()) == sum(1 for r in records if r.gold_sense_count > 1)


class TestSerialization:
    def test_round_trip(self, fixture20):
        generated, gold = fixture20
        keys = vocabulary_join(generated, gold)
        records, _ = align_fixture(generated, gold, keys)
        out = io.StringIO()
        write_alignments(records, out)
        assert parse_alignments(io.StringIO(out.getvalue())) == records
