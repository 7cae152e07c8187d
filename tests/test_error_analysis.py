import _sre
import io
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import _kernels, error_analysis
from lexiforge.alignment import AlignmentRecord
from lexiforge.embedding import DeterministicEmbedder
from lexiforge.error_analysis import (
    ErrorAnalysisConfig,
    ErrorCategory,
    NeighborIndex,
    detect_circularity,
    detect_fabricated_polysemy,
    detect_overcorrection,
    detect_proper_noun_definition,
    hallucination_candidates,
    parse_findings,
    write_findings,
)
from lexiforge.exceptions import EncodingError, ParseError
from lexiforge.ingestion import parse_failures
from lexiforge.model import PosCategory, normalize_lemma
from lexiforge.report import evaluate_dictionaries

from _oracles import oracle_levenshtein
from conftest import DATA_DIR, make_dictionary, make_entry, vector_table

EMBEDDER = DeterministicEmbedder(dimension=512)


def classify(generated, gold, failures=None):
    return evaluate_dictionaries(generated, gold, EMBEDDER, failures=failures).errors


def fabricated(entry, config=None):
    return detect_fabricated_polysemy(entry, vector_table(EMBEDDER, [entry]), config)


def overcorrection(entry, gold, config=None):
    config = config or ErrorAnalysisConfig()
    max_distance = config.overcorrection_max_edit_distance
    neighbors = NeighborIndex(gold, [entry.lemma], max_distance).neighbor_entries(entry.lemma, max_distance)
    return detect_overcorrection(entry, neighbors, vector_table(EMBEDDER, [entry] + gold.entries()), config)


def record(lemma, best_score, category=PosCategory.NOUN, gold_count=1):
    scores = [best_score] + [max(best_score - 0.05, -1.0)] * (gold_count - 1)
    return AlignmentRecord(
        lemma=lemma,
        category=category,
        gen_sense_count=1,
        gold_sense_count=gold_count,
        best_gold_index=1,
        best_score=best_score,
        mean_over_gold=sum(scores) / len(scores),
        per_gold_scores=tuple(scores),
    )


class TestHallucinationCandidates:
    def test_below_threshold_flagged(self):
        findings = hallucination_candidates([record("bajo", 0.05)])
        assert len(findings) == 1
        assert findings[0].category is ErrorCategory.HALLUCINATION_CANDIDATE
        assert "0.0500" in findings[0].evidence

    @pytest.mark.parametrize("score", [-1e-17, 1e-17])
    def test_score_rounding_to_zero_prints_unsigned(self, score):
        findings = hallucination_candidates([record("bajo", score)])
        assert [f.evidence for f in findings] == ["best cosine 0.0000 < 0.1"]

    def test_boundary_score_unflagged(self):
        assert hallucination_candidates([record("justo", 0.1)]) == []

    def test_exhaustive_scan_equivalence(self):
        rng = random.Random(8)
        records = [record(f"l{i}", round(rng.random(), 4)) for i in range(10)]
        config = ErrorAnalysisConfig(hallucination_threshold=0.1)
        flagged = {f.lemma for f in hallucination_candidates(records, config)}
        brute = {r.lemma for r in records if r.best_score < 0.1}
        assert flagged == brute

    def test_random_thresholds_match_brute_force(self):
        rng = random.Random(21)
        records = [record(f"l{i}", round(rng.random(), 4)) for i in range(60)]
        for _ in range(25):
            threshold = round(rng.random(), 4)
            config = ErrorAnalysisConfig(hallucination_threshold=threshold)
            flagged = {f.lemma for f in hallucination_candidates(records, config)}
            assert flagged == {r.lemma for r in records if r.best_score < threshold}


class TestDetectCircularity:
    def test_lemma_inside_definition(self):
        entry = make_entry("gato", "Nombre masculino", "Un gato es un felino doméstico.")
        assert detect_circularity(entry)

    def test_case_insensitive(self):
        entry = make_entry("gato", "Nombre masculino", "El GATO duerme.")
        assert detect_circularity(entry)

    def test_morphological_variant_not_matched(self):
        entry = make_entry("limitable", "Adjetivo", "Que se puede limitar o restringir.")
        assert not detect_circularity(entry)

    def test_derived_form_not_matched(self):
        entry = make_entry("ollera", "Nombre femenino", "Lugar donde se fabrican o venden ollas.")
        assert not detect_circularity(entry)

    def test_whole_word_boundary(self):
        entry = make_entry("limitar", "Verbo", "Suele limitarse a lo esencial.")
        assert not detect_circularity(entry)

    def test_diacritics_are_significant(self):
        entry = make_entry("aquí", "Adverbio", "La palabra aqui sin tilde es otra cosa.")
        assert not detect_circularity(entry)

    def test_any_sense_counts(self):
        entry = make_entry("sal", "Nombre femenino", "Cloruro de sodio.", "Echar sal a la comida.")
        assert detect_circularity(entry)


def regex_circularity(entry):
    """The detector as a regex per entry: the reference the case-fold pre-check must agree with."""
    pattern = re.compile(rf"(?<!\w){re.escape(entry.lemma)}(?!\w)", re.IGNORECASE)
    return any(pattern.search(sense.definition) for sense in entry.senses)


# characters that re.IGNORECASE matches with each other, and a near miss
# (an accented letter) that it does not
CASE_VARIANTS = {
    "s": "sSſ", "k": "kKK", "ß": "ßẞ", "i": "iIİı", "µ": "µμΜ", "σ": "σςΣ", "e": "eEé", "a": "aAá",
}
LEMMA_PIECES = ["s", "k", "ß", "i", "µ", "σ", "e", "a", "ñ", "o", "-", " ", "c++", "a.b", "(x)", "[i]", "\\d", "$", "|", "?"]
CONTEXT = [" ", "", "x", "-", ".", "\u0301", "\u0308", "_", "1", ", ", "ñ", "(", "İ"]


def _case_variant(rng, text):
    return "".join(rng.choice(CASE_VARIANTS.get(c, c)) for c in text)


def _circularity_entry(rng):
    # lemmas are case-folded keys (ß becomes ss, ς becomes σ); definitions keep any case
    lemma = normalize_lemma("".join(rng.choice(LEMMA_PIECES) for _ in range(rng.randint(1, 4))).strip() or "s")
    definitions = []
    for _ in range(rng.randint(1, 3)):
        words = [rng.choice(["el", "sal", "kilo", "σοφίας", "straße", "STRASSE", "ẞ", "ıi", "µm"]) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.7:
            inserted = rng.choice(CONTEXT) + _case_variant(rng, lemma) + rng.choice(CONTEXT)
            words.insert(rng.randint(0, len(words)), inserted)
        definitions.append(" ".join(words).strip() or "vacío")
    return make_entry(lemma, "Nombre masculino", *definitions)


class TestCircularityParity:
    def test_matches_the_regex_per_entry(self):
        rng = random.Random(20261018)
        outcomes = {True: 0, False: 0}
        for _ in range(4000):
            entry = _circularity_entry(rng)
            expected = regex_circularity(entry)
            assert detect_circularity(entry) == expected, (entry.lemma, [s.definition for s in entry.senses])
            outcomes[expected] += 1
        assert min(outcomes.values()) > 500

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

    def test_fold_keeps_length(self):
        text = "İSTANBUL ǅ ß ŉ ﬁ ΐ ẞ ſ K µ ς"
        assert len(text.translate(error_analysis._FOLD)) == len(text)


class TestDetectProperNoun:
    def test_proper_name_pattern(self):
        entry = make_entry("simón", "Nombre masculino", "Nombre propio de persona.")
        assert detect_proper_noun_definition(entry)

    def test_mythology_pattern(self):
        entry = make_entry("abitón", "Nombre masculino", "En la mitología griega, uno de los gigantes.")
        assert detect_proper_noun_definition(entry)

    def test_ordinary_definition_passes(self):
        entry = make_entry("limitación", "Nombre femenino", "Acción y efecto de limitar.")
        assert not detect_proper_noun_definition(entry)


class TestDetectFabricatedPolysemy:
    def test_exact_duplicate(self):
        entry = make_entry("asaltador", "Adjetivo", "Que asalta.", "Que asalta.")
        flagged, evidence = fabricated(entry)
        assert flagged and "exact duplicates" in evidence

    def test_duplicate_up_to_normalization(self):
        entry = make_entry("asaltador", "Adjetivo", "Que  asalta.", "QUE ASALTA.")
        flagged, _ = fabricated(entry)
        assert flagged

    def test_monosemous_not_applicable(self):
        entry = make_entry("sal", "Nombre femenino", "Cloruro de sodio.")
        assert fabricated(entry) is None

    def test_distinct_senses_pass(self):
        entry = make_entry("baboseo", "Nombre masculino", "Acción de babosear.", "Exceso de baba o saliva.")
        flagged, evidence = fabricated(entry)
        assert not flagged and evidence == ""

    def test_near_duplicate_over_similarity(self):
        entry = make_entry("doble", "Adjetivo", "Que asalta con violencia.", "Que asalta sin violencia.")
        config = ErrorAnalysisConfig(fabricated_polysemy_similarity=0.5)
        flagged, evidence = fabricated(entry, config)
        assert flagged and "cosine" in evidence


def edit_distance(a, b):
    """Unit-cost insert/delete/substitute distance over Unicode scalars, from the kernel under test."""
    return int(_kernels.levenshtein(_kernels.codepoints(a), _kernels.codepoints(b)))


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
        assert all(other != "destace" for other, _ in index.neighbors("destace", 2))

    def test_finds_close_neighbor(self, planted):
        _, gold = planted
        index = NeighborIndex(gold, ["destace"])
        assert ("destaque", 2) in index.neighbors("destace", 2)

    def test_respects_distance_bound(self, planted):
        _, gold = planted
        index = NeighborIndex(gold, ["zanfoña"])
        assert index.neighbors("zanfoña", 2) == []

    def test_rejects_distance_beyond_build(self, planted):
        _, gold = planted
        index = NeighborIndex(gold, ["destace"], max_distance=1)
        with pytest.raises(ValueError):
            index.neighbors("destace", 2)

    def test_rejects_a_lemma_that_was_not_a_query(self, planted):
        _, gold = planted
        index = NeighborIndex(gold, ["destace"])
        with pytest.raises(ValueError, match="'destaque' is not one of the index's queries"):
            index.neighbors("destaque", 2)

    def test_index_without_queries_rejects_every_lemma(self, planted):
        _, gold = planted
        with pytest.raises(ValueError):
            NeighborIndex(gold, []).neighbors("destace", 2)


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
    dictionary = make_dictionary("gold", *entries)
    queries = gold + outside
    distances = {(q, g): oracle_levenshtein(q, g) for q in queries for g in gold}
    return dictionary, gold, queries, distances


def assert_matches_brute_force(corpus, d, built_for):
    """Every query's neighbours from an index built for *built_for* equal a scan of the whole gold set."""
    dictionary, gold, queries, distances = corpus
    index = NeighborIndex(dictionary, queries, max_distance=built_for)
    total = 0
    for query in queries:
        expected = sorted(
            ((g, distances[query, g]) for g in gold if g != query and distances[query, g] <= d),
            key=lambda pair: (pair[1], pair[0]),
        )
        assert index.neighbors(query, d) == expected, query
        total += len(expected)
    return total


class TestNeighborIndexOracle:
    # built for d itself, or for 3, where smaller d rely on the exact DP to filter
    @pytest.mark.parametrize("built_for", ["d", "3"])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_matches_brute_force_scan(self, neighbor_corpus, d, built_for):
        total = assert_matches_brute_force(neighbor_corpus, d, d if built_for == "d" else 3)
        # distance 0 leaves only the query itself; above it the corpus is dense
        assert total == 0 if d == 0 else total > 100

    # gold streamed past the queries one or three lemmas at a time, so most
    # lengths take several chunks and the last chunk of a length is partial
    @pytest.mark.parametrize("gold_chunk", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force_scan_in_small_gold_chunks(self, neighbor_corpus, monkeypatch, d, gold_chunk):
        monkeypatch.setattr(error_analysis, "GOLD_CHUNK", gold_chunk)
        assert assert_matches_brute_force(neighbor_corpus, d, d) > 100
        assert_matches_brute_force(neighbor_corpus, d - 1, 3)

    @pytest.mark.parametrize("d", [1, 2])
    def test_each_query_indexed_on_its_own(self, neighbor_corpus, d):
        # only the gold lengths within d of the one query are hashed
        dictionary, gold, queries, distances = neighbor_corpus
        total = sum(assert_matches_brute_force((dictionary, gold, [query], distances), d, d) for query in queries)
        assert total > 100

    def test_queries_outside_every_gold_length_have_no_neighbors(self, neighbor_corpus):
        dictionary, gold, _, _ = neighbor_corpus
        far = "a" * (max(len(g) for g in gold) + 3)
        assert NeighborIndex(dictionary, [far], max_distance=2).neighbors(far, 2) == []

    def test_corpus_covers_the_edge_cases(self, neighbor_corpus):
        _, gold, queries, _ = neighbor_corpus
        assert {"ñ", "á", "ü", "q\u0301"} <= set(gold)
        assert min(len(g) for g in gold) == 1
        assert any(q not in gold for q in queries) and "n\u0303" in queries


class TestVariantHashCollisions:
    # with one hash for every variant, every gold lemma of a reachable length
    # is a candidate and the exact DP alone decides
    def test_every_hash_colliding_still_matches_brute_force(self, neighbor_corpus, monkeypatch):
        monkeypatch.setattr(error_analysis, "_variant_hashes", _one_hash)
        assert_matches_brute_force(neighbor_corpus, 2, 2)

    @pytest.mark.parametrize("gold_chunk", [1, 3])
    def test_every_hash_colliding_in_small_gold_chunks(self, neighbor_corpus, monkeypatch, gold_chunk):
        monkeypatch.setattr(error_analysis, "_variant_hashes", _one_hash)
        monkeypatch.setattr(error_analysis, "GOLD_CHUNK", gold_chunk)
        assert_matches_brute_force(neighbor_corpus, 2, 2)


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

        generated = load_fixture_dictionary("clean_generated.jsonl", "generated")
        gold = load_fixture_dictionary("clean_gold.jsonl", "gold")
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
