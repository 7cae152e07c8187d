import pickle
import unicodedata
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lexiforge.exceptions import DuplicateKeyError, EmptyLemmaError
from lexiforge.model import (
    PosCategory,
    PosTag,
    Sense,
    is_monosemous,
    normalize_lemma,
    vocabulary_join,
)

from conftest import make_dictionary, make_entry


def join_keys(gen, gold):
    """Keys of vocabulary_join's pairs, after checking each pair indexes both sides' entries of its key."""
    gen_rows, gold_rows = vocabulary_join(gen, gold)
    pairs = [(gen.entry(i), gold.entry(j)) for i, j in zip(gen_rows.tolist(), gold_rows.tolist())]
    for gen_entry, gold_entry in pairs:
        assert gen_entry == gen.get(*gen_entry.key) and gold_entry == gold.get(*gen_entry.key)
    return [gen_entry.key for gen_entry, _ in pairs]


class TestNormalizeLemma:
    def test_trims_and_lowercases(self):
        assert normalize_lemma(" Limitación ") == "limitación"

    def test_already_normalized_is_identity(self):
        assert normalize_lemma("aquí") == "aquí"

    def test_composes_decomposed_input(self):
        decomposed = "mañana"  # n + combining tilde
        composed = "mañana"
        # independent check of the two byte sequences
        assert unicodedata.normalize("NFC", decomposed) == composed
        assert normalize_lemma(decomposed) == composed

    def test_keeps_diacritics(self):
        assert normalize_lemma("AQUÍ") == "aquí"

    @pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
    def test_empty_after_trim_raises(self, raw):
        with pytest.raises(EmptyLemmaError):
            normalize_lemma(raw)

    @given(st.text(min_size=1))
    def test_idempotent_on_any_unicode(self, raw):
        try:
            once = normalize_lemma(raw)
        except EmptyLemmaError:
            return
        assert normalize_lemma(once) == once


class TestPosTag:
    @pytest.mark.parametrize(
        "label,category",
        [
            ("Nombre masculino", PosCategory.NOUN),
            ("Nombre femenino", PosCategory.NOUN),
            ("nombre FEMENINO", PosCategory.NOUN),
            ("Nombre masculina", PosCategory.NOUN),
            ("Nombre", PosCategory.NOUN),
            ("Verbo", PosCategory.VERB),
            ("Adjetivo", PosCategory.ADJECTIVE),
            ("Adverbio", PosCategory.ADVERB),
            ("Locución adverbial", PosCategory.OTHER),
        ],
    )
    def test_label_classification(self, label, category):
        tag = PosTag.from_label(label)
        assert tag.category is category
        assert tag.raw_label == label.strip()


class TestSlottedValueTypes:
    @pytest.mark.parametrize(
        "value",
        [
            PosTag.from_label("Verbo"),
            Sense("Algo."),
            make_entry("casa", "Nombre femenino", "Edificio para habitar."),
        ],
        ids=type,
    )
    def test_no_instance_dict_and_still_frozen(self, value):
        assert not hasattr(value, "__dict__")
        name = fields(value)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))


class TestSenseAndEntry:
    def test_monosemy_predicate(self):
        assert is_monosemous(make_entry("gato", "Nombre masculino", "Felino doméstico."))
        assert not is_monosemous(
            make_entry("banco", "Nombre masculino", "Asiento largo.", "Entidad financiera.")
        )

    def test_two_sense_entry_is_polysemous(self):
        entry = make_entry(
            "atropellado",
            "Adjetivo",
            "Que ha sido objeto de un atropello.",
            "Que se hace de manera precipitada.",
        )
        assert not is_monosemous(entry)


# homographs in several categories, listed out of order
_UNORDERED = [
    make_entry("zumo", "Nombre masculino", "Líquido de una fruta."),
    make_entry("bajo", "Verbo", "Primera persona de bajar."),
    make_entry("bajo", "Nombre masculino", "Instrumento de cuerda grave."),
    make_entry("alto", "Adjetivo", "De mucha altura."),
    make_entry("bajo", "Adjetivo", "De poca altura."),
    make_entry("abeja", "Nombre femenino", "Insecto que produce miel."),
    make_entry("bajo", "Adverbio", "En voz baja."),
]
# enumerated by hand: by lemma, then by category value (adjective < adverb < noun < verb)
_IN_KEY_ORDER = [
    ("abeja", PosCategory.NOUN),
    ("alto", PosCategory.ADJECTIVE),
    ("bajo", PosCategory.ADJECTIVE),
    ("bajo", PosCategory.ADVERB),
    ("bajo", PosCategory.NOUN),
    ("bajo", PosCategory.VERB),
    ("zumo", PosCategory.NOUN),
]


class TestDictionary:
    def test_get_and_slots(self):
        entry = make_entry("casa", "Nombre femenino", "Edificio para habitar.")
        d = make_dictionary(entry)
        assert d.get("casa", PosCategory.NOUN) == entry
        assert d.get("casa", PosCategory.VERB) is None
        assert not hasattr(d, "__dict__")

    @pytest.mark.parametrize("repeat_at", [0, 3, 7])
    def test_repeated_key_raises_naming_it(self, repeat_at):
        # a second "bajo" noun, whose label differs from the first one's
        again = make_entry("bajo", "Nombre femenino", "Otra definición.")
        entries = _UNORDERED[:repeat_at] + [again] + _UNORDERED[repeat_at:]
        with pytest.raises(DuplicateKeyError) as exc:
            make_dictionary(*entries)
        assert str(exc.value) == "duplicate key ('bajo', 'noun')"

    def test_same_lemma_different_category_coexist(self):
        d = make_dictionary(
            make_entry("bajo", "Adjetivo", "De poca altura."),
            make_entry("bajo", "Nombre masculino", "Instrumento de cuerda grave."),
        )
        assert len(d) == 2

    def test_run_is_a_lemmas_entries_in_key_order(self):
        d = make_dictionary(*_UNORDERED)
        for lemma in dict.fromkeys(d.lemmas):
            assert [entry.key for entry in map(d.entry, d.run(lemma))] == [k for k in _IN_KEY_ORDER if k[0] == lemma]
        assert list(d.run("zzz")) == [] and list(d.run("")) == []

    @seed(23)
    @settings(max_examples=50)
    @given(st.permutations(_UNORDERED), st.permutations(_UNORDERED[1:4] + [make_entry("cabo", "Verbo", "Extremo.")]))
    def test_any_order_builds_the_same_dictionary(self, generated_order, gold_order):
        gen, gold = make_dictionary(*generated_order), make_dictionary(*gold_order)
        assert [entry.key for entry in gen.entries()] == _IN_KEY_ORDER
        assert gen.entries() is not gen.entries()  # each call returns a list of its own
        assert join_keys(gen, gold) == [
            ("alto", PosCategory.ADJECTIVE),
            ("bajo", PosCategory.NOUN),
            ("bajo", PosCategory.VERB),
        ]

    def test_mono_plus_poly_equals_total(self, fixture20):
        for d in fixture20:
            mono = sum(1 for e in d.entries() if is_monosemous(e))
            poly = sum(1 for e in d.entries() if not is_monosemous(e))
            assert mono + poly == len(d)


class TestVocabularyJoin:
    def test_intersection(self):
        gen = make_dictionary(
            make_entry("a", "Verbo", "Definición a."),
            make_entry("b", "Verbo", "Definición b."),
            make_entry("c", "Verbo", "Definición c."),
        )
        gold = make_dictionary(
            make_entry("b", "Verbo", "Definición b."),
            make_entry("c", "Verbo", "Definición c."),
            make_entry("d", "Verbo", "Definición d."),
        )
        assert join_keys(gen, gold) == [("b", PosCategory.VERB), ("c", PosCategory.VERB)]

    def test_disjoint_is_empty(self):
        gen = make_dictionary(make_entry("a", "Verbo", "Definición."))
        gold = make_dictionary(make_entry("b", "Verbo", "Definición."))
        assert join_keys(gen, gold) == []

    def test_ten_entry_fixture_shares_seven(self):
        shared = ["casa", "gato", "hoja", "mesa", "perro", "sal", "sol"]
        gen_only = ["lunes", "martes", "jueves"]
        gold_only = ["norte", "sur", "este"]
        gen = make_dictionary(
            *[make_entry(x, "Nombre masculino", f"Definición de {x} uno.") for x in shared + gen_only]
        )
        gold = make_dictionary(
            *[make_entry(x, "Nombre masculino", f"Definición de {x} dos.") for x in shared + gold_only]
        )
        # enumerated by hand: the seven shared lemmas, sorted
        assert join_keys(gen, gold) == [(x, PosCategory.NOUN) for x in sorted(shared)]

    def test_pos_category_distinguishes_homographs(self):
        gen = make_dictionary(make_entry("bajo", "Adjetivo", "De poca altura."))
        gold = make_dictionary(make_entry("bajo", "Nombre masculino", "Instrumento grave."))
        assert join_keys(gen, gold) == []

    def test_category_keys_sort_and_join_by_lemma_then_category_name(self):
        labels = ["Verbo", "Nombre masculino", "Adverbio", "Interjección", "Adjetivo"]
        entries = [make_entry(lemma, label, "Definición.") for label in labels for lemma in ("bajo", "alto")]
        gen = make_dictionary(*entries)
        gold = make_dictionary(*reversed(entries))
        expected = sorted({entry.key for entry in entries}, key=lambda key: (key[0], key[1].value))
        assert [entry.key for entry in gen.entries()] == [entry.key for entry in gold.entries()] == expected
        assert join_keys(gen, gold) == expected
        # a category found by value or unpickled is the same member, so it finds the same entry
        for category in PosCategory:
            same = pickle.loads(pickle.dumps(category))
            assert same is category is PosCategory(category.value)
            assert hash(same) == hash(category)
            assert gen.find("bajo", same) == gen.find("bajo", category) is not None
            assert ("alto", same) in gold
