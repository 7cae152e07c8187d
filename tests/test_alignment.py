import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from lexiforge import alignment
from lexiforge.alignment import align_dictionaries, all_pairs_scores, rank_histogram, write_alignments
from lexiforge.embedding import DeterministicEmbedder, embed_deterministic
from lexiforge.model import PosCategory, vocabulary_join

from conftest import make_alignment, make_dictionary, make_entry, vector_table

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


FIELDS = (
    "lemma", "category", "gen_sense_count", "gold_sense_count", "best_gold_index", "best_score", "mean_over_gold",
    "per_gold_scores",
)


def pair_values(block):
    """What *block* holds for each pair, in ``FIELDS`` order, as Python values."""
    scores, offsets = block.scores.tolist(), block.offsets.tolist()
    return [
        (gen.lemma, gen.pos.category, gen_count, end - start, index, best, mean, tuple(scores[start:end]))
        for gen, gen_count, start, end, index, best, mean in zip(
            map(block.generated.entry, block.gen_index.tolist()),
            block.gen_sense_count.tolist(),
            offsets,
            offsets[1:],
            block.best_gold_index.tolist(),
            block.best_score.tolist(),
            block.mean_over_gold.tolist(),
        )
    ]


def align_one(gen, gold, embedder=EMBEDDER):
    """The one pair of a one-key generated dictionary aligned against a one-key gold dictionary, by field name."""
    vectors = vector_table(embedder, [gen, gold])
    generated, gold = make_dictionary(gen), make_dictionary(gold)
    values = pair_values(align_dictionaries(generated, gold, vocabulary_join(generated, gold), vectors))
    assert len(values) == 1
    return SimpleNamespace(**dict(zip(FIELDS, values[0])))


def align_fixture(generated, gold, join, embedder=EMBEDDER):
    vectors = vector_table(embedder, generated.entries() + gold.entries())
    return align_dictionaries(generated, gold, join, vectors)


def join_entries(generated, gold, join):
    """The (generated, gold) entry pairs of *join*'s entry indices."""
    return [(generated.entry(i), gold.entry(j)) for i, j in zip(*join)]


NO_PAIRS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def per_pair_alignment(pairs, vectors):
    """Reference for ``align_dictionaries``: each pair scored on its own, one (k, d) @ (d,) product at a time.

    Per pair: (lemma, category, generated sense count, gold sense count,
    1-based first-maximum index, best score, mean over gold, per-gold scores).
    """
    expected = []
    for gen, gold_entry in pairs:
        rows = vectors.matrix[vectors.indices([s.definition for s in (gen.senses[0], *gold_entry.senses)])]
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


def float_bits(values):
    """Every float of ``pair_values`` rows as its exact hex form, so -0.0 and 0.0 differ too."""
    return [(best.hex(), mean.hex(), [x.hex() for x in scores]) for *_, best, mean, scores in values]


def mixed_block():
    """Generated and gold dictionaries of one key set; gold entries hold 1-4 senses, interleaved, some with examples."""
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
    return make_dictionary(*(gen for gen, _ in pairs)), make_dictionary(*(gold for _, gold in pairs))


def read_alignments(text):
    """``pair_values`` rows back from write_alignments output."""
    rows = []
    for line in text.splitlines():
        obj = json.loads(line)
        assert list(obj) == list(FIELDS)
        obj["category"] = PosCategory(obj["category"])
        obj["per_gold_scores"] = tuple(obj["per_gold_scores"])
        rows.append(tuple(obj[name] for name in FIELDS))
    return rows


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


class TestAlignDictionaries:
    def test_fixture20_arity_and_order(self, fixture20):
        generated, gold = fixture20
        join = vocabulary_join(generated, gold)
        values = pair_values(align_fixture(generated, gold, join))
        assert len(values) == 20
        expected = [(gen.lemma, gen.pos.category) for gen, _ in join_entries(generated, gold, join)]
        assert [(lemma, category) for lemma, category, *_ in values] == expected

    def test_empty_join(self, fixture20):
        generated, gold = fixture20
        block = align_fixture(generated, gold, NO_PAIRS)
        assert pair_values(block) == []
        assert block.scores.shape == (0,) and block.offsets.tolist() == [0]
        out = io.StringIO()
        assert write_alignments(block, out) == 0 and out.getvalue() == ""

    def test_rerun_is_byte_identical(self, fixture20):
        generated, gold = fixture20
        join = vocabulary_join(generated, gold)
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            write_alignments(align_fixture(generated, gold, join), out)
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]

    def test_argmax_invariant_under_positive_scaling(self, fixture20):
        generated, gold = fixture20
        join = vocabulary_join(generated, gold)
        base = align_fixture(generated, gold, join)
        scaled = align_fixture(generated, gold, join, ScaledEmbedder(EMBEDDER, 7.5))
        assert base.best_gold_index.tolist() == scaled.best_gold_index.tolist()
        assert np.abs(base.best_score - scaled.best_score).max() < 1e-9

    def test_non_finite_score_raises(self):
        # a table of unit rows gives finite scores; this one hands out a NaN
        class NaNRows:
            matrix = np.full((1, 2), np.nan)

            def indices(self, texts):
                return np.zeros(len(texts), dtype=np.intp)

        dictionary = make_dictionary(make_entry("sal", "Nombre femenino", "Sustancia blanca."))
        with pytest.raises(ValueError, match="not finite"):
            align_dictionaries(dictionary, dictionary, (np.array([0]), np.array([0])), NaNRows())


class TestGroupedAlignmentMatchesPerPair:
    """Scoring the pairs of one gold sense count together gives every float the per-pair loop gives."""

    def test_fixture20(self, fixture20):
        generated, gold = fixture20
        join = vocabulary_join(generated, gold)
        vectors = vector_table(EMBEDDER, generated.entries() + gold.entries())
        pairs = join_entries(generated, gold, join)
        assert len({len(gold_entry.senses) for _, gold_entry in pairs}) > 1
        got = pair_values(align_dictionaries(generated, gold, join, vectors))
        expected = per_pair_alignment(pairs, vectors)
        assert got == expected
        assert float_bits(got) == float_bits(expected)

    # chunks of 1 and 2 pairs split every group, and the last chunk of a group is partial
    @pytest.mark.parametrize("chunk", [1, 2, 64])
    def test_block_mixing_gold_sense_counts(self, monkeypatch, chunk):
        monkeypatch.setattr(alignment, "ALIGN_CHUNK", chunk)
        generated, gold = mixed_block()
        join = vocabulary_join(generated, gold)
        pairs = join_entries(generated, gold, join)
        assert len(pairs) == len(generated) == len(gold)
        assert {len(gold_entry.senses) for _, gold_entry in pairs} == {1, 2, 3, 4}
        vectors = vector_table(EMBEDDER, generated.entries() + gold.entries())
        got = pair_values(align_dictionaries(generated, gold, join, vectors))
        expected = per_pair_alignment(pairs, vectors)
        assert got == expected
        assert float_bits(got) == float_bits(expected)



class TestAllPairs:
    def test_matrix_shape(self):
        gen = make_entry("hoja", "Nombre femenino", "Lámina de papel.", "Órgano de las plantas.")
        gold = make_entry("hoja", "Nombre femenino", "Órgano verde y plano.", "Lámina delgada.", "Cuchilla.")
        definitions = [[s.definition for s in entry.senses] for entry in (gen, gold)]
        matrix = all_pairs_scores(*definitions, vector_table(EMBEDDER, [gen, gold]))
        assert len(matrix) == 2 and all(len(row) == 3 for row in matrix)


def histogram_rows(*rows):
    """``make_alignment`` rows of generated-monosemous nouns: (lemma, best index, gold sense count)."""
    made = []
    for lemma, best_index, gold_count in rows:
        scores = [0.1] * gold_count
        scores[best_index - 1] = 0.9
        made.append((lemma, PosCategory.NOUN, 1, scores))
    return make_alignment(*made)


class TestRankHistogram:
    def test_counts(self):
        assert rank_histogram(histogram_rows(("a", 1, 3), ("b", 1, 2), ("c", 2, 2))) == {1: 2, 2: 1}

    def test_singleton_gold_excluded(self):
        assert rank_histogram(histogram_rows(("a", 1, 1), ("b", 1, 1))) == {}

    def test_generated_polysemous_excluded(self):
        block = make_alignment(("a", PosCategory.NOUN, 2, [0.1, 0.9]), ("b", PosCategory.NOUN, 1, [0.1, 0.9]))
        assert rank_histogram(block) == {2: 1}

    def test_constructed_decreasing_counts(self):
        rows = []
        for index, count in ((1, 10), (2, 5), (3, 2)):
            rows.extend((f"l{index}x{i}", index, 3) for i in range(count))
        histogram = rank_histogram(histogram_rows(*rows))
        assert histogram == {1: 10, 2: 5, 3: 2}
        counts = [histogram[i] for i in sorted(histogram)]
        assert counts == sorted(counts, reverse=True)

    def test_count_conservation(self):
        block = histogram_rows(("a", 2, 4), ("b", 1, 2), ("c", 1, 1))
        assert sum(rank_histogram(block).values()) == int((block.gold_sense_count > 1).sum())


class TestSerialization:
    def test_round_trip(self, fixture20):
        generated, gold = fixture20
        block = align_fixture(generated, gold, vocabulary_join(generated, gold))
        out = io.StringIO()
        written = write_alignments(block, out)
        assert read_alignments(out.getvalue()) == pair_values(block)
        assert written == len(out.getvalue().encode("utf-8"))
