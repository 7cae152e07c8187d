import _sre
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import _kernels, error_analysis
from lexiforge.embedding import DeterministicEmbedder
from lexiforge.error_analysis import (
    DEFAULT_PROPER_NOUN_PATTERNS,
    Candidate,
    ErrorAnalysisConfig,
    ErrorCategory,
    ErrorFinding,
    NeighborIndex,
    classify_errors,
    detect_circularity,
    detect_fabricated_polysemy,
    findings_of_entries,
    hallucination_candidates,
    parse_findings,
    write_findings,
)
from lexiforge.exceptions import EncodingError, ParseError
from lexiforge.ingestion import parse_failures
from lexiforge.model import PosCategory, normalize_lemma, vocabulary_join
from lexiforge.report import evaluate_dictionaries

from _oracles import oracle_levenshtein, oracle_overcorrection, oracle_variant_hashes
from conftest import DATA_DIR, make_alignment, make_dictionary, make_entry, vector_table

EMBEDDER = DeterministicEmbedder(dimension=512)


def classify(generated, gold, failures=None):
    """The findings that evaluating *generated* against *gold* writes, and their count per category."""
    with tempfile.TemporaryDirectory() as out_dir:
        report = evaluate_dictionaries(generated, gold, EMBEDDER, out_dir, failures=failures)
        with open(Path(out_dir) / "findings.jsonl", encoding="utf-8") as fh:
            return SimpleNamespace(findings=parse_findings(fh), summary=report.error_summary)


def fabricated(entry, config=None):
    return detect_fabricated_polysemy(make_dictionary(entry), vector_table(EMBEDDER, [entry]), config).get(0)


def entry_findings(entries, config=None):
    """``findings_of_entries`` of a dictionary of *entries* as one block, its polysemous definitions embedded."""
    vectors = vector_table(EMBEDDER, [e for e in entries if len(e.senses) > 1])
    return findings_of_entries(make_dictionary(*entries), vectors, config)


def overcorrection(entry, gold, config=None):
    """The over-correction finding ``classify_errors`` gives *entry* as a hallucination candidate, or None."""
    candidate = Candidate(0, gold.find(*entry.key), 1, 0.0)
    findings = classify_errors(make_dictionary(entry), gold, [candidate], EMBEDDER, config)
    return next((f for f in findings if f.category is ErrorCategory.OVERCORRECTION), None)


def scored(*rows):
    """An alignment of generated-monosemous nouns from (lemma, best score) rows, one gold sense each."""
    return make_alignment(*((lemma, PosCategory.NOUN, 1, [score]) for lemma, score in rows))


def flagged(block, config=None):
    return {block.generated.lemmas[candidate.gen_index] for candidate in hallucination_candidates(block, config)}


class TestHallucinationCandidates:
    def test_below_threshold_flagged(self):
        block = make_alignment(
            ("alto", PosCategory.NOUN, 1, [0.5]),
            ("bajo", PosCategory.VERB, 1, [0.02, 0.05, 0.01]),
        )
        assert hallucination_candidates(block) == [Candidate(block.gen_index[1], block.gold_index[1], 2, 0.05)]
        assert block.generated.lemmas[block.gen_index[1]] == "bajo"

    @pytest.mark.parametrize("score,printed", [(-1e-17, "0.0000"), (1e-17, "0.0000"), (0.05, "0.0500")])
    @pytest.mark.parametrize(
        "gold_definition,suffix",
        [("Parte inferior de una cosa.", ""), ("Cardar.", "; short gold definition, low confidence")],
    )
    def test_finding_evidence(self, score, printed, gold_definition, suffix):
        # a score that rounds to zero prints unsigned; a gold definition of
        # at most two words marks the finding low-confidence
        generated = make_dictionary(make_entry("bajo", "Nombre masculino", "Sonido grave."))
        gold = make_dictionary(make_entry("bajo", "Nombre masculino", gold_definition))
        findings = classify_errors(generated, gold, [Candidate(0, 0, 1, score)], EMBEDDER)
        assert [f.evidence for f in findings] == [f"best cosine {printed} < 0.1" + suffix]
        assert findings[0].category is ErrorCategory.HALLUCINATION_CANDIDATE
        assert findings[0].low_confidence is bool(suffix)
        assert (findings[0].pos_label, findings[0].gold_definition) == ("Nombre masculino", gold_definition)

    def test_boundary_score_unflagged(self):
        assert hallucination_candidates(scored(("justo", 0.1))) == []

    def test_exhaustive_scan_equivalence(self):
        rng = random.Random(8)
        rows = [(f"l{i}", round(rng.random(), 4)) for i in range(10)]
        config = ErrorAnalysisConfig(hallucination_threshold=0.1)
        assert flagged(scored(*rows), config) == {lemma for lemma, score in rows if score < 0.1}

    def test_random_thresholds_match_brute_force(self):
        rng = random.Random(21)
        rows = [(f"l{i}", round(rng.random(), 4)) for i in range(60)]
        block = scored(*rows)
        for _ in range(25):
            threshold = round(rng.random(), 4)
            config = ErrorAnalysisConfig(hallucination_threshold=threshold)
            assert flagged(block, config) == {lemma for lemma, score in rows if score < threshold}


class TestDetectCircularity:
    def test_lemma_inside_definition(self):
        assert detect_circularity("gato", ["Un gato es un felino doméstico."])

    def test_case_insensitive(self):
        assert detect_circularity("gato", ["El GATO duerme."])

    def test_morphological_variant_not_matched(self):
        assert not detect_circularity("limitable", ["Que se puede limitar o restringir."])

    def test_derived_form_not_matched(self):
        assert not detect_circularity("ollera", ["Lugar donde se fabrican o venden ollas."])

    def test_whole_word_boundary(self):
        assert not detect_circularity("limitar", ["Suele limitarse a lo esencial."])

    def test_diacritics_are_significant(self):
        assert not detect_circularity("aquí", ["La palabra aqui sin tilde es otra cosa."])

    def test_any_sense_counts(self):
        assert detect_circularity("sal", ["Cloruro de sodio.", "Echar sal a la comida."])

    @pytest.mark.parametrize("lemma,definition", [("f", "Letra ﬀ de imprenta."), ("a", "Vocal ẚ rara.")])
    def test_a_folded_hit_that_the_regex_rejects(self, lemma, definition):
        # the fold is coarser than re.IGNORECASE (ﬀ folds to f, ẚ to a): the
        # pre-check passes the entry, and the regex decides it is not circular
        assert lemma in error_analysis._fold(definition)
        assert not detect_circularity(lemma, [definition])
        assert entry_findings([make_entry(lemma, "Nombre femenino", definition)]) == []


def circularity_of(entry):
    return detect_circularity(entry.lemma, [sense.definition for sense in entry.senses])


def regex_circularity(entry):
    """The detector as a regex per entry: the reference the case-fold pre-check must agree with."""
    pattern = re.compile(rf"(?<!\w){re.escape(entry.lemma)}(?!\w)", re.IGNORECASE)
    return any(pattern.search(sense.definition) for sense in entry.senses)


# characters that re.IGNORECASE matches with each other, and a near miss
# (an accented letter) that it does not
CASE_VARIANTS = {
    "s": "sSſ", "k": "kKK", "ß": "ßẞ", "i": "iIİı", "µ": "µμΜ", "σ": "σςΣ", "e": "eEé", "a": "aAá",
}
LEMMA_PIECES = ["s", "k", "ß", "i", "µ", "σ", "e", "a", "f", "ñ", "o", "-", " ", "c++", "a.b", "(x)", "[i]", "\\d", "$", "|", "?"]
CONTEXT = [" ", "", "x", "-", ".", "\u0301", "\u0308", "_", "1", ", ", "ñ", "(", "İ"]


def _case_variant(rng, text):
    return "".join(rng.choice(CASE_VARIANTS.get(c, c)) for c in text)


def _circularity_entry(rng):
    # lemmas are case-folded keys (ß becomes ss, ς becomes σ); definitions keep any case
    lemma = normalize_lemma("".join(rng.choice(LEMMA_PIECES) for _ in range(rng.randint(1, 4))).strip() or "s")
    definitions = []
    for _ in range(rng.randint(1, 3)):
        words = [rng.choice(["el", "sal", "kilo", "σοφίας", "straße", "STRASSE", "ẞ", "ıi", "µm", "ﬀ", "ẚ"]) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.7:
            inserted = rng.choice(CONTEXT) + _case_variant(rng, lemma) + rng.choice(CONTEXT)
            words.insert(rng.randint(0, len(words)), inserted)
        definitions.append(" ".join(words).strip() or "vacío")
    return make_entry(lemma, "Nombre masculino", *definitions)


def oracle_findings(dictionary):
    """The circularity and proper-noun findings of each entry by itself: the regex and each definition's ``str.casefold``."""
    return [
        (entry.lemma, category)
        for entry in dictionary.entries()
        for category, flagged in (
            (ErrorCategory.CIRCULARITY, regex_circularity(entry)),
            (
                ErrorCategory.PROPER_NOUN_AS_COMMON,
                any(p in s.definition.casefold() for s in entry.senses for p in DEFAULT_PROPER_NOUN_PATTERNS),
            ),
        )
        if flagged
    ]


def text_findings(entries):
    """The circularity and proper-noun findings that ``findings_of_entries`` gives *entries* as one block."""
    return [(f.lemma, f.category) for f in entry_findings(entries) if f.category is not ErrorCategory.FABRICATED_POLYSEMY]


class TestCircularityParity:
    def test_matches_the_regex_per_entry(self):
        rng = random.Random(20261018)
        entries = [_circularity_entry(rng) for _ in range(4000)]
        assert all(circularity_of(entry) == regex_circularity(entry) for entry in entries)
        # ﬀ and ẚ fold to f and a, which re.IGNORECASE does not match them with:
        # entries that pass the folded pre-check and that only the regex rejects
        fold = error_analysis._fold
        assert any(
            fold(entry.lemma) in fold(word) and not regex_circularity(entry)
            for entry in entries
            for word in ("ﬀ", "ẚ")
            if any(word in sense.definition for sense in entry.senses)
        )
        # keys repeat, so the entries make one dictionary per occurrence: every
        # key's first entry, then every repeated key's second entry, and so on
        rounds, seen = [], {}
        for entry in entries:
            occurrence = seen[entry.key] = seen.get(entry.key, -1) + 1
            if occurrence == len(rounds):
                rounds.append([])
            rounds[occurrence].append(entry)
        circular = 0
        for group in rounds:
            dictionary = make_dictionary(*group)
            expected = [entry.lemma for entry in dictionary.entries() if regex_circularity(entry)]
            vectors = vector_table(EMBEDDER, [entry for entry in group if len(entry.senses) > 1])
            for size in (len(dictionary), 7):  # one block, and many small ones
                found = [
                    finding.lemma
                    for start in range(0, len(dictionary), size)
                    for finding in findings_of_entries(dictionary.block(start, start + size), vectors)
                    if finding.category is ErrorCategory.CIRCULARITY
                ]
                assert found == expected
            circular += len(expected)
        assert len(rounds) > 1 and 500 < circular < 3500

    def test_joined_fold_slices_back_to_each_text(self):
        # texts before the last two entries whose str.lower is longer (İ) or
        # depends on its neighbours (a final Σ), and ẞ, ſ and an astral
        # character, which _fold maps to one character each: the slices of
        # the one folded string must still start where each text starts
        entries = [
            make_entry("abeto", "Nombre masculino", "İİ ÁRBOL ΟΔΟΣ.", "Madera İ de ẞ."),
            make_entry("acero", "Nombre masculino", "ſ 𝔘 aleación İ.", "ΣΑ İ ſſ."),
            make_entry("agua", "Nombre femenino", "Líquido 🌲 İ AGUA."),
            make_entry("sal", "Nombre femenino", "Echar ſAL a la comida."),
            make_entry("zorro", "Nombre masculino", "NOMBRE PROPIO de un animal."),
        ]
        dictionary = make_dictionary(*entries)
        assert [e.lemma for e in dictionary.entries()] == ["abeto", "acero", "agua", "sal", "zorro"]
        expected = oracle_findings(dictionary)
        assert expected == [
            ("agua", ErrorCategory.CIRCULARITY),
            ("sal", ErrorCategory.CIRCULARITY),
            ("zorro", ErrorCategory.PROPER_NOUN_AS_COMMON),
        ]
        assert text_findings(entries) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["sal", "agua", "ıra", "ǅemal", "straße", "σοφια", "ﬁn", "ox"]),
                st.lists(
                    st.tuples(
                        st.text(alphabet=st.sampled_from("aİıΣσẞſﬁ\u0301 .\x00🌲") | st.characters(), max_size=6),
                        st.sampled_from(["", "lemma", "LEMMA", "Nombre Propio", "EN LA MITOLOGÍA", "nombre  propio"]),
                        st.text(alphabet=st.sampled_from("aİΣẞſ .\x00") | st.characters(), max_size=6),
                    ),
                    min_size=1,
                    max_size=3,
                ),
            ),
            max_size=8,
            unique_by=lambda entry: entry[0],
        )
    )
    def test_findings_match_the_per_text_oracles(self, drawn):
        # every lemma and definition folded by itself, whatever texts stand
        # beside it in the one joined string
        entries = []
        for lemma, parts in drawn:
            definitions = []
            for before, middle, after in parts:
                middle = {"lemma": lemma, "LEMMA": lemma.upper()}.get(middle, middle)
                definitions.append(f"{before}{middle}{after} x")
            entries.append(make_entry(lemma, "Nombre masculino", *definitions))
        assert text_findings(entries) == oracle_findings(make_dictionary(*entries))

    def test_only_entries_passing_the_folded_substring_test_reach_the_regex(self, monkeypatch):
        calls = []
        monkeypatch.setattr(error_analysis, "detect_circularity", lambda lemma, definitions: calls.append(lemma) or True)
        entries = [
            make_entry("gato", "Nombre masculino", "Felino doméstico."),
            make_entry("sal", "Nombre femenino", "Cloruro de sodio.", "Echar SAL a la comida."),
            make_entry("limitar", "Verbo", "Suele limitarse a lo esencial."),
        ]
        entry_findings(entries)
        assert calls == ["limitar", "sal"]  # in key order

    def test_fold_joins_every_pair_ignorecase_joins(self):
        # re.IGNORECASE matches text character t to pattern character p when
        # their simple lowercases are equal, or are joined by re._casefix;
        # every such candidate pair that re really matches must fold alike
        fold = error_analysis._FOLD
        by_lower = {}
        for code in range(0x10000):
            if not 0xD800 <= code < 0xE000:
                by_lower.setdefault(_sre.unicode_tolower(code), []).append(chr(code))
        checked = 0
        for lower, members in by_lower.items():
            group = members + [c for extra in re._casefix._EXTRA_CASES.get(lower, ()) for c in by_lower.get(extra, [])]
            for p in group:
                for t in group:
                    if p != t and re.fullmatch(re.escape(p), t, re.IGNORECASE):
                        assert p.translate(fold) == t.translate(fold), (hex(ord(p)), hex(ord(t)))
                        checked += 1
        assert checked > 2000

    def test_lowercase_fold_equals_the_table(self):
        every = "".join(chr(code) for code in range(0x30000) if not 0xD800 <= code < 0xE000)
        for text in (every, every[::-1], "İSTANBUL ſ ς µ K ẞ ǅ", "plain ascii"):
            assert error_analysis._fold(text) == text.translate(error_analysis._FOLD)

    def test_fold_keeps_length(self):
        text = "İSTANBUL ǅ ß ŉ ﬁ ΐ ẞ ſ K µ ς"
        assert len(text.translate(error_analysis._FOLD)) == len(text)


def categories(*entries):
    return [(finding.lemma, finding.category.value) for finding in entry_findings(list(entries))]


class TestDetectProperNoun:
    def test_proper_name_pattern(self):
        entry = make_entry("simón", "Nombre masculino", "Nombre propio de persona.")
        assert categories(entry) == [("simón", "proper_noun_as_common")]

    def test_mythology_pattern(self):
        entry = make_entry("abitón", "Nombre masculino", "En la mitología griega, uno de los gigantes.")
        assert categories(entry) == [("abitón", "proper_noun_as_common")]

    def test_ordinary_definition_passes(self):
        entry = make_entry("limitación", "Nombre femenino", "Acción y efecto de limitar.")
        assert categories(entry) == []

    def test_any_sense_counts_and_entries_keep_their_order(self):
        entries = [
            make_entry("ares", "Nombre masculino", "Planeta.", "Dios de la guerra EN LA MITOLOGÍA griega."),
            make_entry("mesa", "Nombre femenino", "Mueble con tablero horizontal."),
            make_entry("gato", "Nombre masculino", "Un gato es un felino.", "Nombre propio de un gato."),
        ]
        assert categories(*entries) == [
            ("ares", "proper_noun_as_common"),
            ("gato", "circularity"),
            ("gato", "proper_noun_as_common"),
        ]


    def test_matches_a_search_per_sense(self):
        # case folds that change a text's length (ß, İ, ŉ, ﬁ), line breaks
        # inside a definition, and a pattern's halves at the end of one
        # definition and the start of the next
        pieces = ["nombre", " propio", "NOMBRE PROPIO", "en la", " mitología", "EN LA MITOLOGÍA", "ß", "İ", "ŉ", "ﬁ", "\n", " ", "x"]
        rng = random.Random(20261020)
        entries = [
            make_entry(
                f"lema{i}",
                "Nombre masculino",
                *(
                    "".join(rng.choice(pieces) for _ in range(rng.randint(1, 6))).strip() or "vacío"
                    for _ in range(rng.randint(1, 3))
                ),
            )
            for i in range(2000)
        ]
        expected = [
            entry.lemma
            for entry in make_dictionary(*entries).entries()
            if any(p in sense.definition.casefold() for sense in entry.senses for p in DEFAULT_PROPER_NOUN_PATTERNS)
        ]
        found = [f.lemma for f in entry_findings(entries) if f.category is ErrorCategory.PROPER_NOUN_AS_COMMON]
        assert found == expected
        assert 200 < len(expected) < 1800


class TestDetectFabricatedPolysemy:
    def test_exact_duplicate(self):
        entry = make_entry("asaltador", "Adjetivo", "Que asalta.", "Que asalta.")
        assert fabricated(entry) == "senses 1 and 2 are exact duplicates"

    def test_duplicate_up_to_normalization(self):
        entry = make_entry("asaltador", "Adjetivo", "Que  asalta.", "QUE ASALTA.")
        assert fabricated(entry) == "senses 1 and 2 are exact duplicates"

    def test_monosemous_not_applicable(self):
        entry = make_entry("sal", "Nombre femenino", "Cloruro de sodio.")
        assert fabricated(entry) is None

    def test_distinct_senses_pass(self):
        entry = make_entry("baboseo", "Nombre masculino", "Acción de babosear.", "Exceso de baba o saliva.")
        assert fabricated(entry) is None

    def test_near_duplicate_over_similarity(self):
        entry = make_entry("doble", "Adjetivo", "Que asalta con violencia.", "Que asalta sin violencia.")
        config = ErrorAnalysisConfig(fabricated_polysemy_similarity=0.5)
        assert re.fullmatch(r"senses 1 and 2 cosine 0\.\d{4} >= 0\.5", fabricated(entry, config))


def edit_distance(a, b):
    """Unit-cost insert/delete/substitute distance over Unicode scalars, from the kernel under test.

    No two strings are further apart than the longer one's length, so
    that bound leaves the kernel's capped distance exact.
    """
    return int(_kernels.levenshtein_many([a], [b], max(len(a), len(b)))[0])


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("destace", "destace") == 0

    def test_insertions(self):
        assert edit_distance("", "abc") == 3

    def test_appendix_pair(self):
        # derived with the reference dynamic-programming oracle
        assert oracle_levenshtein("destace", "destaque") == 2
        assert edit_distance("destace", "destaque") == 2

    @settings(max_examples=60)
    @given(
        st.text(alphabet="abcñé", max_size=8),
        st.text(alphabet="abcñé", max_size=8),
        st.text(alphabet="abcñé", max_size=8),
    )
    def test_metric_axioms(self, a, b, c):
        assert edit_distance(a, a) == 0
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
        if a != b:
            assert edit_distance(a, b) >= 1

    @settings(max_examples=60)
    @given(st.text(max_size=10), st.text(max_size=10))
    def test_matches_oracle(self, a, b):
        assert edit_distance(a, b) == oracle_levenshtein(a, b)


class TestNeighborIndex:
    def test_excludes_the_lemma_itself(self, planted):
        _, gold = planted
        index = NeighborIndex(gold, ["destace"])
        assert all(other != "destace" for other, _ in index.neighbors("destace"))

    def test_finds_close_neighbor(self, planted):
        _, gold = planted
        index = NeighborIndex(gold, ["destace"])
        assert ("destaque", 2) in index.neighbors("destace")

    def test_respects_distance_bound(self, planted):
        _, gold = planted
        index = NeighborIndex(gold, ["zanfoña"])
        assert index.neighbors("zanfoña") == []

    def test_build_distance_bounds_the_neighbors(self, planted):
        _, gold = planted
        # destaque is two edits from destace: within the default bound, beyond 1
        assert ("destaque", 2) in NeighborIndex(gold, ["destace"], max_distance=2).neighbors("destace")
        assert all(distance <= 1 for _, distance in NeighborIndex(gold, ["destace"], max_distance=1).neighbors("destace"))

    def test_rejects_a_lemma_that_was_not_a_query(self, planted):
        _, gold = planted
        index = NeighborIndex(gold, ["destace"])
        with pytest.raises(ValueError, match="'destaque' is not one of the index's queries"):
            index.neighbors("destaque")

    def test_index_without_queries_rejects_every_lemma(self, planted):
        _, gold = planted
        with pytest.raises(ValueError):
            NeighborIndex(gold, []).neighbors("destace")

    def test_query_longer_than_one_word(self):
        # 70 code points: a query of any length goes through the one banded kernel
        query = "ñandú" * 14
        gold = [query[:-1], query[:-2] + "ab", "x" + query[1:], query[1:] + "xyz", "ñandú"]
        entries = [make_entry(w, "Nombre masculino", f"Definición {i}.") for i, w in enumerate(gold)]
        dictionary = make_dictionary(*entries)
        expected = sorted(
            ((g, oracle_levenshtein(query, g)) for g in gold if oracle_levenshtein(query, g) <= 2),
            key=lambda pair: (pair[1], pair[0]),
        )
        assert len(query) > 64 and len(expected) == 3
        assert NeighborIndex(dictionary, [query]).neighbors(query) == expected


class TestSortedUnique:
    @pytest.mark.parametrize("size", [0, 1, 2, 50, 1000])
    def test_matches_np_unique(self, size):
        rng = np.random.default_rng(size)
        for high in (3, 2**62):
            values = rng.integers(-high, high, size=size, dtype=np.int64)
            got = error_analysis._sorted_unique(values)
            assert got.dtype == np.int64 and got.tolist() == np.unique(values).tolist()

    def test_neighbor_index_does_not_import_numpy_ma(self):
        script = (
            "import sys\n"
            "from lexiforge.error_analysis import NeighborIndex\n"
            "from lexiforge.model import Dictionary, DictionaryEntry, PosTag, Sense\n"
            "gold = Dictionary([DictionaryEntry('casa', PosTag.from_label('Nombre femenino'), (Sense('Edificio.'),))])\n"
            "assert NeighborIndex(gold, ['cosa']).neighbors('cosa') == [('casa', 1)]\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        source = str(Path(error_analysis.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


def _random_word(rng, alphabet, max_length):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_length)))


def _mutate(rng, word, alphabet):
    chars = list(word)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3) if chars else 0
        if op == 0:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(alphabet))
        elif op == 1:
            del chars[rng.randrange(len(chars))]
        else:
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
    return "".join(chars)


@pytest.fixture(scope="module")
def neighbor_corpus():
    """Seeded gold lemmas and queries, many of them within a few edits of each other.

    The gold set holds precomposed ñ, á and ü, a decomposed accent that
    NFC keeps as two code points (q + U+0301) and lemmas of one to three
    code points; the queries add strings outside the gold set, among them
    the empty string and a decomposed ñ (n + U+0303) that no gold lemma
    spells that way.
    """
    rng = random.Random(20261018)
    alphabet = "aeinosñáü"
    gold = ["ñ", "á", "ü", "a", "ñu", "ab", "abc", "q\u0301", "aq\u0301a"]
    while len(gold) < 160:
        word = _mutate(rng, rng.choice(gold), alphabet) if rng.random() < 0.6 else _random_word(rng, alphabet, 8)
        if word and word not in gold and normalize_lemma(word) == word:
            gold.append(word)
    outside = ["", "x", "n\u0303", "an\u0303o", "aq\u0301", "áq\u0301a"]
    while len(outside) < 80:
        word = _mutate(rng, rng.choice(gold), alphabet + "\u0301")
        if word not in gold and word not in outside:
            outside.append(word)
    entries = [make_entry(w, "Nombre masculino", f"Definición {i}.") for i, w in enumerate(gold)]
    dictionary = make_dictionary(*entries)
    queries = gold + outside
    distances = {(q, g): oracle_levenshtein(q, g) for q in queries for g in gold}
    return dictionary, gold, queries, distances


def assert_matches_brute_force(corpus, d):
    """Every query's neighbours from an index built for distance *d* equal a scan of the whole gold set."""
    dictionary, gold, queries, distances = corpus
    index = NeighborIndex(dictionary, queries, max_distance=d)
    total = 0
    for query in queries:
        expected = sorted(
            ((g, distances[query, g]) for g in gold if g != query and distances[query, g] <= d),
            key=lambda pair: (pair[1], pair[0]),
        )
        assert index.neighbors(query) == expected, query
        total += len(expected)
    return total


class TestNeighborIndexOracle:
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_matches_brute_force_scan(self, neighbor_corpus, d):
        total = assert_matches_brute_force(neighbor_corpus, d)
        # distance 0 leaves only the query itself; above it the corpus is dense
        assert total == 0 if d == 0 else total > 100

    # gold streamed past the queries one or three lemmas at a time, so most
    # lengths take several chunks and the last chunk of a length is partial
    @pytest.mark.parametrize("gold_chunk", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force_scan_in_small_gold_chunks(self, neighbor_corpus, monkeypatch, d, gold_chunk):
        monkeypatch.setattr(error_analysis, "GOLD_CHUNK", gold_chunk)
        assert assert_matches_brute_force(neighbor_corpus, d) > 100

    @pytest.mark.parametrize("d", [1, 2])
    def test_each_query_indexed_on_its_own(self, neighbor_corpus, d):
        # only the gold lengths within d of the one query are hashed
        dictionary, gold, queries, distances = neighbor_corpus
        total = sum(assert_matches_brute_force((dictionary, gold, [query], distances), d) for query in queries)
        assert total > 100

    def test_queries_outside_every_gold_length_have_no_neighbors(self, neighbor_corpus):
        dictionary, gold, _, _ = neighbor_corpus
        far = "a" * (max(len(g) for g in gold) + 3)
        assert NeighborIndex(dictionary, [far], max_distance=2).neighbors(far) == []

    def test_corpus_covers_the_edge_cases(self, neighbor_corpus):
        _, gold, queries, _ = neighbor_corpus
        assert {"ñ", "á", "ü", "q\u0301"} <= set(gold)
        assert min(len(g) for g in gold) == 1
        assert any(q not in gold for q in queries) and "n\u0303" in queries


class TestVariantHashes:
    # U+0000 and astral code points among ordinary ones; each row is a multiset of hashes
    @pytest.mark.parametrize("max_deletions", [0, 1, 2, 3])
    def test_each_row_is_the_combination_oracle(self, max_deletions):
        rng = np.random.default_rng(max_deletions)
        alphabet = np.array([0, 1, ord("a"), ord("ñ"), ord("中"), 0x1F332, 0x2EA9F, 0x10FFFF])
        for length in range(14):
            matrix = rng.choice(alphabet, size=(5, length))
            got = error_analysis._variant_hashes(matrix, max_deletions)
            expected = oracle_variant_hashes(matrix, max_deletions)
            assert got.dtype == np.uint64 and got.shape == expected.shape
            assert (np.sort(got, axis=1) == np.sort(expected, axis=1)).all()

    def test_no_rows(self):
        assert error_analysis._variant_hashes(np.empty((0, 4), dtype=np.int64), 2).shape == (0, 11)


class TestVariantHashCollisions:
    # with one hash for every variant, every gold lemma of a reachable length
    # is a candidate and the bounded edit distance alone decides
    def test_every_hash_colliding_still_matches_brute_force(self, neighbor_corpus, monkeypatch):
        monkeypatch.setattr(error_analysis, "_variant_hashes", _one_hash)
        assert_matches_brute_force(neighbor_corpus, 2)

    @pytest.mark.parametrize("gold_chunk", [1, 3])
    def test_every_hash_colliding_in_small_gold_chunks(self, neighbor_corpus, monkeypatch, gold_chunk):
        monkeypatch.setattr(error_analysis, "_variant_hashes", _one_hash)
        monkeypatch.setattr(error_analysis, "GOLD_CHUNK", gold_chunk)
        assert_matches_brute_force(neighbor_corpus, 2)


def _one_hash(codepoints, _):
    return np.zeros((len(codepoints), 1), dtype=np.uint64)


class TestDetectOvercorrection:
    def test_planted_neighbor_found(self, planted):
        generated, gold = planted
        entry = generated.get("destace", PosCategory.NOUN)
        finding = overcorrection(entry, gold)
        assert finding is not None
        assert "destaque" in finding.evidence
        assert finding.gold_definition == "Acción y efecto de destacar o sobresalir."

    def test_no_neighbor_within_distance(self, planted):
        generated, gold = planted
        entry = generated.get("zanfoña", PosCategory.NOUN)
        assert overcorrection(entry, gold) is None

    def test_similarity_floor_applies(self, planted):
        generated, gold = planted
        entry = generated.get("destace", PosCategory.NOUN)
        config = ErrorAnalysisConfig(overcorrection_similarity_floor=1.0 - 1e-12)
        finding = overcorrection(entry, gold, config)
        assert finding is not None  # exact text copy still reaches the floor


#: Definitions that share words, so their cosines spread over [0, 1]; a
#: definition that two gold senses share gives them equal scores.
OVERCORRECTION_POOL = (
    "Acción y efecto de destacar.",
    "Acción y efecto de destacar o sobresalir.",
    "Cosa que sobresale de las demás.",
    "Lugar donde se guarda algo.",
    "Lugar donde se vende algo.",
    "Persona que guarda algo.",
    "Edificio para habitar.",
    "Edificio para guardar cosas.",
)
LABELS = ("Nombre femenino", "Adjetivo", "Verbo")


def planted_overcorrections():
    """Gold and generated entries of the over-correction cases that the tie rule decides."""
    same, other = OVERCORRECTION_POOL[1], OVERCORRECTION_POOL[3]
    gold = [
        # near-spelled multi-sense neighbours of "casa"
        make_entry("cosa", "Nombre femenino", other, same, OVERCORRECTION_POOL[0]),
        make_entry("caso", "Nombre masculino", OVERCORRECTION_POOL[2], same),
        make_entry("casa", "Nombre femenino", OVERCORRECTION_POOL[6]),
        # equal scores at distances 1 and 2 from "mesa"
        make_entry("mesas", "Nombre femenino", OVERCORRECTION_POOL[4]),
        make_entry("amesas", "Nombre femenino", OVERCORRECTION_POOL[4]),
        make_entry("mesa", "Nombre femenino", OVERCORRECTION_POOL[7]),
        # equal scores at one distance on two lemmas, "bolo" before "polo"
        make_entry("polo", "Nombre masculino", OVERCORRECTION_POOL[5]),
        make_entry("bolo", "Nombre masculino", OVERCORRECTION_POOL[5]),
        make_entry("solo", "Adjetivo", OVERCORRECTION_POOL[6]),
        # equal scores on two categories of one lemma, the adjective first in key order
        make_entry("rato", "Nombre masculino", OVERCORRECTION_POOL[0]),
        make_entry("rato", "Adjetivo", OVERCORRECTION_POOL[0]),
        make_entry("gato", "Nombre masculino", OVERCORRECTION_POOL[2]),
    ]
    generated = [
        make_entry("casa", "Nombre femenino", same),
        make_entry("mesa", "Nombre femenino", OVERCORRECTION_POOL[4]),
        make_entry("solo", "Adjetivo", OVERCORRECTION_POOL[5]),
        make_entry("gato", "Nombre masculino", OVERCORRECTION_POOL[0]),
    ]
    return generated, gold


def random_overcorrections(rng):
    """Near-spelled gold entries of one to three senses, and generated entries on a share of their keys."""
    lemmas = {_random_word(rng, "aeos", 4) for _ in range(40)}
    gold = [
        make_entry(lemma, label, *(rng.choice(OVERCORRECTION_POOL) for _ in range(rng.randint(1, 3))))
        for lemma in sorted(lemmas)
        for label in rng.sample(LABELS, rng.randint(1, 2))
    ]
    generated = [make_entry(e.lemma, e.pos.raw_label, rng.choice(OVERCORRECTION_POOL)) for e in gold if rng.random() < 0.4]
    return generated, gold


def overcorrections_of(generated_entries, gold_entries, config):
    """The over-correction findings of every join pair as a candidate: (block detector's, oracle's)."""
    generated, gold = make_dictionary(*generated_entries), make_dictionary(*gold_entries)
    join = vocabulary_join(generated, gold)
    candidates = [Candidate(i, j, 1, 0.0) for i, j in zip(*(index.tolist() for index in join))]
    found = [
        f
        for f in classify_errors(generated, gold, candidates, EMBEDDER, config)
        if f.category is ErrorCategory.OVERCORRECTION
    ]
    table = vector_table(EMBEDDER, generated_entries + gold_entries)
    rows = lambda texts: table.matrix[table.indices(texts)]  # noqa: E731
    gold_entries = gold.entries()  # in key order
    expected = []
    for i in join[0].tolist():
        entry = generated.entry(i)
        near = sorted(
            {(oracle_levenshtein(entry.lemma, g.lemma), g.lemma) for g in gold_entries if g.lemma != entry.lemma},
        )
        neighbors = [
            (lemma, distance, [sense.definition for sense in g.senses])
            for distance, lemma in near
            if distance <= config.overcorrection_max_edit_distance
            for g in gold_entries
            if g.lemma == lemma
        ]
        best = oracle_overcorrection(entry.senses[0].definition, neighbors, rows, config.overcorrection_similarity_floor)
        if best is not None:
            score, distance, lemma, gold_definition = best
            expected.append(
                ErrorFinding(
                    lemma=entry.lemma,
                    category=ErrorCategory.OVERCORRECTION,
                    evidence=f"gold neighbor '{lemma}' at edit distance {distance}, cosine {score:.4f}",
                    pos_label=entry.pos.raw_label,
                    generated_definition=entry.senses[0].definition,
                    gold_definition=gold_definition,
                )
            )
    return found, expected


class TestOvercorrectionOracle:
    # blocks of one and three candidates, and align chunks of one and three
    # pairs, so the scoring crosses block and chunk boundaries
    @pytest.fixture(params=[(64, 16), (1, 1), (3, 3)], ids=["default", "blocks-1", "blocks-3"])
    def blocks(self, request, monkeypatch):
        candidate_block, align_chunk = request.param
        monkeypatch.setattr(error_analysis, "CANDIDATE_BLOCK", candidate_block)
        monkeypatch.setattr("lexiforge.alignment.ALIGN_CHUNK", align_chunk)

    def test_planted_ties(self, blocks):
        generated, gold = planted_overcorrections()
        found, expected = overcorrections_of(generated, gold, ErrorAnalysisConfig())
        assert found == expected
        winners = {f.lemma: (f.evidence.split("'")[1], f.gold_definition) for f in found}
        assert winners == {
            "casa": ("caso", OVERCORRECTION_POOL[1]),  # a later sense, and caso before cosa
            "mesa": ("mesas", OVERCORRECTION_POOL[4]),  # distance 1 over distance 2
            "solo": ("bolo", OVERCORRECTION_POOL[5]),  # the first lemma at one distance
            "gato": ("rato", OVERCORRECTION_POOL[0]),
        }
        rato = next(f for f in found if f.lemma == "gato")
        assert rato.evidence.startswith("gold neighbor 'rato' at edit distance 1, cosine 1.0000")

    def test_score_exactly_at_the_floor(self, blocks):
        generated = [make_entry("casa", "Nombre femenino", OVERCORRECTION_POOL[0])]
        gold = [
            make_entry("cosa", "Nombre femenino", OVERCORRECTION_POOL[2]),
            make_entry("casa", "Nombre femenino", OVERCORRECTION_POOL[6]),
        ]
        table = vector_table(EMBEDDER, generated + gold)
        rows = lambda texts: table.matrix[table.indices(texts)]  # noqa: E731
        floor, *_ = oracle_overcorrection(OVERCORRECTION_POOL[0], [("cosa", 1, [OVERCORRECTION_POOL[2]])], rows, 0.0)
        assert 0.0 < floor < 1.0
        found, expected = overcorrections_of(generated, gold, ErrorAnalysisConfig(overcorrection_similarity_floor=floor))
        assert found == expected and len(found) == 1
        above = ErrorAnalysisConfig(overcorrection_similarity_floor=float(np.nextafter(floor, 2.0)))
        assert overcorrections_of(generated, gold, above) == ([], [])

    @pytest.mark.parametrize("floor", [0.0, 0.3, 0.6, 1.0])
    def test_matches_the_per_entry_oracle(self, blocks, floor):
        rng = random.Random(20261020)
        config = ErrorAnalysisConfig(overcorrection_similarity_floor=floor)
        total = 0
        for _ in range(6):
            found, expected = overcorrections_of(*random_overcorrections(rng), config)
            assert found == expected
            total += len(found)
        assert total > 0


class TestClassifyErrors:
    def test_planted_fixture_summary(self, planted):
        generated, gold = planted
        with open(DATA_DIR / "planted_failures.jsonl", encoding="utf-8") as fh:
            failures = parse_failures(fh)
        report = classify(generated, gold, failures)
        # planted: zanfoña/simón/destace/convicio below 0.1 (per the scratch
        # embedding oracle), one instance of every other category
        assert report.summary == {
            "hallucination_candidate": 4,
            "circularity": 1,
            "proper_noun_as_common": 1,
            "fabricated_polysemy": 1,
            "overcorrection": 1,
            "refusal": 1,
        }
        assert report.summary["hallucination_candidate"] >= 4

    def test_planted_findings_order(self, planted):
        # each candidate in join order with its over-correction, then each
        # entry's circularity, proper-noun and polysemy findings in
        # entries() order, then the refusals in failure-log order
        generated, gold = planted
        with open(DATA_DIR / "planted_failures.jsonl", encoding="utf-8") as fh:
            failures = parse_failures(fh)
        assert [(f.category.value, f.lemma) for f in classify(generated, gold, failures).findings] == [
            ("hallucination_candidate", "convicio"),
            ("hallucination_candidate", "destace"),
            ("overcorrection", "destace"),
            ("hallucination_candidate", "simón"),
            ("hallucination_candidate", "zanfoña"),
            ("fabricated_polysemy", "asaltante"),
            ("circularity", "gato"),
            ("proper_noun_as_common", "simón"),
            ("refusal", "jaharrar"),
        ]

    def test_planted_categories_point_at_planted_lemmas(self, planted):
        generated, gold = planted
        report = classify(generated, gold)
        by_category = {}
        for finding in report.findings:
            by_category.setdefault(finding.category, set()).add(finding.lemma)
        assert by_category[ErrorCategory.CIRCULARITY] == {"gato"}
        assert by_category[ErrorCategory.PROPER_NOUN_AS_COMMON] == {"simón"}
        assert by_category[ErrorCategory.FABRICATED_POLYSEMY] == {"asaltante"}
        assert by_category[ErrorCategory.OVERCORRECTION] == {"destace"}
        assert by_category[ErrorCategory.HALLUCINATION_CANDIDATE] == {
            "zanfoña",
            "simón",
            "destace",
            "convicio",
        }

    def test_clean_fixture_zero_findings(self):
        from conftest import load_fixture_dictionary

        generated = load_fixture_dictionary("clean_generated.jsonl")
        gold = load_fixture_dictionary("clean_gold.jsonl")
        report = classify(generated, gold)
        assert report.findings == []
        assert all(count == 0 for count in report.summary.values())

    def test_refusal_passthrough_count(self, planted):
        generated, gold = planted
        with open(DATA_DIR / "planted_failures.jsonl", encoding="utf-8") as fh:
            failures = parse_failures(fh)
        report = classify(generated, gold, failures)
        refusals = [f for f in report.findings if f.category is ErrorCategory.REFUSAL]
        assert len(refusals) == sum(1 for f in failures if f.reason.value == "refusal") == 1
        assert refusals[0].lemma == "jaharrar"

    def test_short_gold_marked_low_confidence(self, fixture20):
        generated, gold = fixture20
        report = classify(generated, gold)
        flagged = {f.lemma: f for f in report.findings if f.category is ErrorCategory.HALLUCINATION_CANDIDATE}
        assert set(flagged) == {"carduzar", "destace"}
        assert flagged["carduzar"].low_confidence  # gold is the one-word "Cardar."
        assert not flagged["destace"].low_confidence

    def test_deterministic_across_reruns(self, planted):
        generated, gold = planted
        assert classify(generated, gold).findings == classify(generated, gold).findings


class TestFindingsSerialization:
    def test_round_trip(self, planted):
        generated, gold = planted
        report = classify(generated, gold)
        out = io.StringIO()
        write_findings(report.findings, out)
        assert parse_findings(io.StringIO(out.getvalue())) == report.findings

    def test_write_parse_write_is_byte_identical(self, planted):
        generated, gold = planted
        first = io.StringIO()
        write_findings(classify(generated, gold).findings, first)
        second = io.StringIO()
        write_findings(parse_findings(io.StringIO(first.getvalue())), second)
        assert second.getvalue() == first.getvalue()

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("low_confidence", "false"),
            ("low_confidence", 0),
            ("lemma", 5),
            ("evidence", None),
            ("pos", 7),
            ("generated_definition", ["texto"]),
            ("gold_definition", 1.5),
            ("category", None),
        ],
    )
    def test_field_of_wrong_type_rejected(self, name, value):
        line = json.dumps({**FINDING, name: value})
        with pytest.raises(ParseError, match=f"{name} must be") as exc:
            parse_findings([line])
        assert exc.value.field == name and exc.value.line_number == 1

    def test_null_where_the_writer_puts_null_accepted(self):
        line = json.dumps({**FINDING, "pos": None, "generated_definition": None, "gold_definition": None})
        (finding,) = parse_findings([line])
        assert finding.pos_label is finding.generated_definition is finding.gold_definition is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError, match="unexpected field.*'severity'"):
            parse_findings([json.dumps({**FINDING, "severity": "high"})])

    @pytest.mark.parametrize("name", ["low_confidence", "pos", "lemma"])
    def test_missing_field_rejected(self, name):
        with pytest.raises(ParseError, match=f"missing field.*'{name}'"):
            parse_findings([json.dumps({k: v for k, v in FINDING.items() if k != name})])

    def test_unknown_category_rejected(self):
        with pytest.raises(ParseError, match="unknown category 'gremlins'") as exc:
            parse_findings([json.dumps({**FINDING, "category": "gremlins"})])
        assert exc.value.field == "category"


    def test_invalid_utf8_raises_encoding_error(self):
        stream = io.TextIOWrapper(io.BytesIO(json.dumps(FINDING).encode("utf-8") + b"\n\xff\n"), encoding="utf-8")
        with pytest.raises(EncodingError):
            parse_findings(stream)

    def test_not_an_object_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_findings(["[1, 2]"])
        assert exc.value.field == "record" and exc.value.line_number == 1

FINDING = {
    "lemma": "casa",
    "category": "hallucination_candidate",
    "evidence": "best cosine 0.0500 < 0.1",
    "pos": "NOUN",
    "generated_definition": "Edificio.",
    "gold_definition": "Vivienda.",
    "low_confidence": False,
}
