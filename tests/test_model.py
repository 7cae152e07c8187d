import pickle
import unicodedata
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexiforge.alignment import AlignmentRecord
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
    """Keys of vocabulary_join's pairs, after checking each pair holds both sides' entries for its key."""
    pairs = vocabulary_join(gen, gold)
    for gen_entry, gold_entry in pairs:
        assert gen_entry is gen.get(*gen_entry.key) and gold_entry is gold.get(*gen_entry.key)
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
            AlignmentRecord("casa", PosCategory.NOUN, 1, (0.5,)),
        ],
        ids=type,
    )
    def test_no_instance_dict_and_still_frozen(self, value):
        assert not hasattr(value, "__dict__")
        name = fields(value)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))


class TestSenseAndEntry:
    def test_sense_rejects_untrimmed_definition(self):
        with pytest.raises(ValueError):
            Sense(definition=" con espacios ")

    def test_entry_requires_senses(self):
        with pytest.raises(ValueError):
            make_entry("casa", "Nombre femenino")

    def test_entry_requires_normalized_lemma(self):
        with pytest.raises(ValueError):
            make_entry("Casa", "Nombre femenino", "Edificio para habitar.")

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


class TestDictionary:
    def test_add_get_and_duplicate(self):
        entry = make_entry("casa", "Nombre femenino", "Edificio para habitar.")
        d = make_dictionary(entry)
        assert d.get("casa", PosCategory.NOUN) == entry
        assert d.get("casa", PosCategory.VERB) is None
        with pytest.raises(DuplicateKeyError):
            d.add(entry)

    def test_same_lemma_different_category_coexist(self):
        d = make_dictionary(
            make_entry("bajo", "Adjetivo", "De poca altura."),
            make_entry("bajo", "Nombre masculino", "Instrumento de cuerda grave."),
        )
        assert len(d) == 2

    def test_entries_after_add_include_the_new_key_in_order(self):
        d = make_dictionary(make_entry("casa", "Nombre femenino", "Edificio para habitar."))
        assert [e.lemma for e in d.entries()] == ["casa"]
        d.add(make_entry("abeja", "Nombre femenino", "Insecto que produce miel."))
        d.add(make_entry("zumo", "Nombre masculino", "Líquido de una fruta."))
        assert [e.lemma for e in d.entries()] == ["abeja", "casa", "zumo"]
        assert d.entries() is not d.entries()  # each call returns a list of its own

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
            assert gen.get("bajo", same) is gen.get("bajo", category) is not None
            assert ("alto", same) in gold
