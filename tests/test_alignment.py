import io
import json

import numpy as np
import pytest

from lexiforge import alignment
from lexiforge.alignment import (
    AlignmentRecord,
    align_dictionaries,
    all_pairs_scores,
    rank_histogram,
    write_alignments,
)
from lexiforge.embedding import DeterministicEmbedder, embed_deterministic
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


def align_one(gen, gold, embedder=EMBEDDER):
    """Record of a one-key generated dictionary aligned against a one-key gold dictionary."""
    vectors = vector_table(embedder, [gen, gold])
    join = vocabulary_join(make_dictionary(gen), make_dictionary(gold))
    records = align_dictionaries(join, vectors)
    assert len(records) == 1
    return records[0]


def align_fixture(generated, gold, join, embedder=EMBEDDER):
    vectors = vector_table(embedder, generated.entries() + gold.entries())
    return align_dictionaries(join, vectors)


def per_pair_alignment(pairs, vectors):
    """Reference for ``align_dictionaries``: each pair scored on its own, one (k, d) @ (d,) product at a time.

    Per pair: (lemma, category, generated sense count, gold sense count,
    1-based first-maximum index, best score, mean over gold, per-gold scores).
    """
    expected = []
    for gen, gold_entry in pairs:
        rows = vectors.rows([s.definition for s in (gen.senses[0], *gold_entry.senses)])
        scores = (rows[1:] @ rows[0]).tolist()
        best_index = scores.index(max(scores))
        expected.append(
            (
                gen.lemma,
                gen.pos.category,
                len(gen.senses),
                len(gold_entry.senses),
                best_index + 1,
                scores[best_index],
                sum(scores) / len(scores),
                tuple(scores),
            )
        )
    return expected


def record_values(records):
    """What *records* hold and derive, in ``per_pair_alignment``'s order."""
    return [
        (
            r.lemma,
            r.category,
            r.gen_sense_count,
            r.gold_sense_count,
            r.best_gold_index,
            r.best_score,
            r.mean_over_gold,
            r.per_gold_scores,
        )
        for r in records
    ]


def float_bits(values):
    """Every float of ``record_values`` rows as its exact hex form, so -0.0 and 0.0 differ too."""
    return [(best.hex(), mean.hex(), [x.hex() for x in scores]) for *_, best, mean, scores in values]


def mixed_block():
    """Join pairs whose gold entries hold 1-4 senses, interleaved, some with examples."""
    words = ["agua", "luz", "piedra", "camino", "fuego", "mar", "hoja", "viento", "tierra", "sal", "río"]
    pairs = []
    for i, lemma in enumerate(words):
        gold_senses = [
            (f"Sentido {j} de {lemma}, visto desde {lemma[::-1]}.", f"Ejemplo {j} con {lemma}." if j % 2 else None)
            for j in range(1, (3, 1, 4, 2)[i % 4] + 1)
        ]
        gen_senses = [(f"Sentido de {lemma} dicho de otro modo.", f"Uso de {lemma}." if i % 3 else None)]
        if i % 5 == 0:
            gen_senses.append(f"Otro sentido de {lemma}.")
        gen = make_entry(lemma, "Nombre masculino", *gen_senses)
        pairs.append((gen, make_entry(lemma, "Nombre masculino", *gold_senses)))
    return pairs


DERIVED_FIELDS = ("gold_sense_count", "best_gold_index", "best_score", "mean_over_gold")


def read_alignments(text):
    """AlignmentRecords back from write_alignments output, built from the four stored fields.

    Every line's derived fields must equal the rebuilt record's properties.
    """
    records = []
    for line in text.splitlines():
        obj = json.loads(line)
        record = AlignmentRecord(
            lemma=obj["lemma"],
            category=PosCategory(obj["category"]),
            gen_sense_count=obj["gen_sense_count"],
            per_gold_scores=tuple(obj["per_gold_scores"]),
        )
        for name in DERIVED_FIELDS:
            assert obj[name] == getattr(record, name), (obj["lemma"], name)
        records.append(record)
    return records


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

    def test_example_never_changes_the_score(self):
        gen = make_entry("rio", "Nombre masculino", ("Corriente natural de agua.", "El rio baja crecido."))
        gold = make_entry("rio", "Nombre masculino", ("Corriente natural de agua.", "Nada distinto."))
        assert abs(align_one(gen, gold).best_score - 1.0) < 1e-9


class TestAlignmentRecordValidation:
    def test_rejects_empty_scores(self):
        with pytest.raises(ValueError):
            AlignmentRecord(lemma="x", category=PosCategory.NOUN, gen_sense_count=1, per_gold_scores=())


class TestAlignDictionaries:
    def test_fixture20_arity_and_order(self, fixture20):
        generated, gold = fixture20
        join = vocabulary_join(generated, gold)
        records = align_fixture(generated, gold, join)
        assert len(records) == 20
        assert [(r.lemma, r.category.value) for r in records] == [
            (gen.lemma, gen.pos.category.value) for gen, _ in join
        ]

    def test_empty_join(self, fixture20):
        generated, gold = fixture20
        records = align_fixture(generated, gold, [])
        assert records == []

    def test_rerun_is_byte_identical(self, fixture20):
        generated, gold = fixture20
        join = vocabulary_join(generated, gold)
        outputs = []
        for _ in range(2):
            records = align_fixture(generated, gold, join)
            out = io.StringIO()
            write_alignments(records, out)
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]

    def test_argmax_invariant_under_positive_scaling(self, fixture20):
        generated, gold = fixture20
        join = vocabulary_join(generated, gold)
        base = align_fixture(generated, gold, join)
        scaled = align_fixture(generated, gold, join, ScaledEmbedder(EMBEDDER, 7.5))
        for a, b in zip(base, scaled):
            assert a.best_gold_index == b.best_gold_index
            assert abs(a.best_score - b.best_score) < 1e-9


class TestGroupedAlignmentMatchesPerPair:
    """Scoring the pairs of one gold sense count together gives every float the per-pair loop gives."""

    def test_fixture20(self, fixture20):
        generated, gold = fixture20
        join = vocabulary_join(generated, gold)
        vectors = vector_table(EMBEDDER, generated.entries() + gold.entries())
        assert len({len(gold_entry.senses) for _, gold_entry in join}) > 1
        got = record_values(align_dictionaries(join, vectors))
        expected = per_pair_alignment(join, vectors)
        assert got == expected
        assert float_bits(got) == float_bits(expected)

    # chunks of 1 and 2 pairs split every group, and the last chunk of a group is partial
    @pytest.mark.parametrize("chunk", [1, 2, 64])
    def test_block_mixing_gold_sense_counts(self, monkeypatch, chunk):
        monkeypatch.setattr(alignment, "ALIGN_CHUNK", chunk)
        pairs = mixed_block()
        assert {len(gold_entry.senses) for _, gold_entry in pairs} == {1, 2, 3, 4}
        vectors = vector_table(EMBEDDER, [entry for pair in pairs for entry in pair])
        got = record_values(align_dictionaries(pairs, vectors))
        expected = per_pair_alignment(pairs, vectors)
        assert got == expected
        assert float_bits(got) == float_bits(expected)


class TestAllPairs:
    def test_matrix_shape(self):
        gen = make_entry("hoja", "Nombre femenino", "Lámina de papel.", "Órgano de las plantas.")
        gold = make_entry("hoja", "Nombre femenino", "Órgano verde y plano.", "Lámina delgada.", "Cuchilla.")
        matrix = all_pairs_scores(gen, gold, vector_table(EMBEDDER, [gen, gold]))
        assert len(matrix) == 2 and all(len(row) == 3 for row in matrix)


class TestRankHistogram:
    def _record(self, lemma, best_index, gold_count):
        scores = [0.1] * gold_count
        scores[best_index - 1] = 0.9
        return AlignmentRecord(lemma=lemma, category=PosCategory.NOUN, gen_sense_count=1, per_gold_scores=tuple(scores))

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
        records = align_fixture(generated, gold, vocabulary_join(generated, gold))
        out = io.StringIO()
        write_alignments(records, out)
        assert read_alignments(out.getvalue()) == records
