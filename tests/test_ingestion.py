import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge.exceptions import DuplicateKeyError, ParseError
from lexiforge.generation import FailureReason, GenerationFailure
from lexiforge.ingestion import (
    parse_dictionary,
    parse_failures,
    parse_lemma_list,
    write_dictionary,
    write_failures,
)
from lexiforge.model import Dictionary, DictionaryEntry, Gender, PosCategory, PosTag, Sense, is_monosemous

from conftest import make_dictionary, make_entry


class TestParseLemmaList:
    def test_plain_and_tagged_records(self):
        result = parse_lemma_list(io.StringIO("casa\ngato\tNombre masculino\n"))
        assert [(r.lemma, r.pos.category if r.pos else None) for r in result.records] == [
            ("casa", None),
            ("gato", PosCategory.NOUN),
        ]
        assert result.records[1].pos.gender is Gender.MASCULINE

    def test_skips_comments_and_blanks(self):
        result = parse_lemma_list(io.StringIO("# comment\n\ncasa\n"))
        assert [r.lemma for r in result.records] == ["casa"]
        assert result.content_line_count == 1

    def test_two_tabs_is_an_error_with_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_lemma_list(io.StringIO("casa\nx\ty\tz\n"))
        assert exc.value.line_number == 2

    def test_blank_lemma_is_an_error(self):
        with pytest.raises(ParseError) as exc:
            parse_lemma_list(io.StringIO("casa\n \tVerbo\n"))
        assert exc.value.line_number == 2

    def test_duplicates_keep_first_and_are_counted(self):
        text = "casa\nCASA\ncasa\tNombre femenino\ncasa\tnombre FEMENINO\n"
        result = parse_lemma_list(io.StringIO(text))
        assert [(r.lemma, r.pos.category if r.pos else None) for r in result.records] == [
            ("casa", None),
            ("casa", PosCategory.NOUN),
        ]
        assert result.duplicate_count == 2
        assert len(result.records) + result.duplicate_count == result.content_line_count

    def test_lemmas_are_normalized(self):
        result = parse_lemma_list(io.StringIO(" Limitación \n"))
        assert result.records[0].lemma == "limitación"

    def test_count_preserved_without_duplicates(self):
        lines = "".join(f"lema{i}\n" for i in range(1000))
        result = parse_lemma_list(io.StringIO(lines))
        assert len(result.records) == 1000
        assert result.duplicate_count == 0

    def test_invalid_utf8_raises_encoding_error(self, tmp_path):
        from lexiforge.exceptions import EncodingError

        path = tmp_path / "bad.txt"
        path.write_bytes(b"casa\n\xff\xfe no es utf-8\n")
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(EncodingError):
                parse_lemma_list(fh)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["casa", "gato", "aquí", "ñu", "sol"]),
                st.sampled_from([None, "Verbo", "Nombre masculino", "Adjetivo"]),
            ),
            max_size=30,
        )
    )
    def test_record_count_conservation(self, rows):
        text = "".join(f"{lemma}\t{label}\n" if label else f"{lemma}\n" for lemma, label in rows)
        result = parse_lemma_list(io.StringIO(text))
        assert len(result.records) + result.duplicate_count == result.content_line_count == len(rows)


class TestParseDictionary:
    def test_single_monosemous_record(self):
        line = json.dumps(
            {"lemma": "limitar", "pos": "Verbo", "senses": [{"definition": "Poner límites a algo.", "example": None}]}
        )
        d = parse_dictionary(io.StringIO(line + "\n"))
        assert len(d) == 1
        assert sum(1 for e in d.entries() if is_monosemous(e)) == 1

    def test_sense_ordinals_follow_file_order(self):
        line = json.dumps(
            {
                "lemma": "banco",
                "pos": "Nombre masculino",
                "senses": [
                    {"definition": "Asiento largo.", "example": None},
                    {"definition": "Entidad financiera.", "example": "Fue al banco."},
                ],
            }
        )
        d = parse_dictionary(io.StringIO(line + "\n"))
        entry = d.get("banco", PosCategory.NOUN)
        assert [s.ordinal for s in entry.senses] == [1, 2]

    def test_fixture20_hand_counts(self, fixture20):
        generated, gold = fixture20
        # hand-counted in the committed fixture files
        assert len(generated) == len(gold) == 20
        assert sum(1 for e in generated.entries() if not is_monosemous(e)) == 4
        assert sum(1 for e in gold.entries() if not is_monosemous(e)) == 8

    def test_duplicate_key_reports_line(self):
        line = json.dumps(
            {"lemma": "sol", "pos": "Nombre masculino", "senses": [{"definition": "Estrella.", "example": None}]}
        )
        with pytest.raises(DuplicateKeyError) as exc:
            parse_dictionary(io.StringIO(line + "\n" + line + "\n"))
        assert exc.value.line_number == 2

    def test_extra_field_is_schema_violation(self):
        record = {
            "lemma": "sol",
            "pos": "Nombre masculino",
            "senses": [{"definition": "Estrella.", "example": None}],
            "etymology": "del latín",
        }
        with pytest.raises(ParseError) as exc:
            parse_dictionary(io.StringIO(json.dumps(record) + "\n"))
        assert exc.value.line_number == 1
        assert "etymology" in str(exc.value)

    def test_extra_sense_field_reports_path(self):
        record = {
            "lemma": "sol",
            "pos": "Nombre masculino",
            "senses": [{"definition": "Estrella.", "example": None, "note": "x"}],
        }
        with pytest.raises(ParseError) as exc:
            parse_dictionary(io.StringIO(json.dumps(record) + "\n"))
        assert exc.value.field == "senses[0]"

    def test_invalid_json_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_dictionary(io.StringIO('{"lemma": "a"\n'))
        assert exc.value.line_number == 1

    @pytest.mark.parametrize(
        ("record", "field"),
        [
            ({"lemma": 5}, "lemma"),
            ({"pos": None}, "pos"),
            ({"senses": {"definition": "Estrella.", "example": None}}, "senses"),
            ({"senses": [{"definition": None, "example": None}]}, "senses[0].definition"),
            ({"senses": [{"definition": "Estrella.", "example": 3}]}, "senses[0].example"),
            ({"senses": [{"definition": "Estrella.", "example": None}, "Astro."]}, "senses[1]"),
        ],
        ids=["lemma", "pos", "senses", "definition", "example", "sense-not-an-object"],
    )
    def test_field_of_wrong_type_reports_path(self, record, field):
        good = {"lemma": "sol", "pos": "Nombre masculino", "senses": [{"definition": "Estrella.", "example": None}]}
        with pytest.raises(ParseError) as exc:
            parse_dictionary([json.dumps(good | record)])
        assert exc.value.field == field and exc.value.line_number == 1

    def test_blank_definition_rejected(self):
        record = {"lemma": "sol", "pos": "Nombre masculino", "senses": [{"definition": "  ", "example": None}]}
        with pytest.raises(ParseError) as exc:
            parse_dictionary([json.dumps(record)])
        assert exc.value.field == "senses[0].definition"

    def test_empty_senses_rejected(self):
        record = {"lemma": "sol", "pos": "Nombre masculino", "senses": []}
        with pytest.raises(ParseError):
            parse_dictionary(io.StringIO(json.dumps(record) + "\n"))


class TestSharedPosTags:
    def test_entries_of_one_label_share_one_tag(self):
        lines = [
            json.dumps({"lemma": lemma, "pos": label, "senses": [{"definition": "Algo.", "example": None}]})
            for lemma, label in [("gato", "Nombre masculino"), ("perro", "Nombre masculino"), ("correr", "Verbo")]
        ]
        dictionary = parse_dictionary(lines)
        gato, perro = dictionary.get("gato", PosCategory.NOUN), dictionary.get("perro", PosCategory.NOUN)
        assert gato.pos is perro.pos
        assert dictionary.get("correr", PosCategory.VERB).pos.raw_label == "Verbo"

    def test_lemma_list_and_failure_log_share_tags(self):
        records = parse_lemma_list(["gato\tVerbo", "perro\tVerbo"]).records
        assert records[0].pos is records[1].pos
        failures = parse_failures(
            json.dumps({"lemma": lemma, "pos": "Verbo", "reason": "refusal", "detail": "no"}) for lemma in ("a", "b")
        )
        assert failures[0].pos is failures[1].pos


class TestWriteDictionary:
    def test_empty_dictionary_writes_nothing(self):
        out = io.StringIO()
        assert write_dictionary(Dictionary(name="empty"), out) == 0
        assert out.getvalue() == ""

    def test_round_trip_identity_on_fixture(self, fixture20):
        generated, _ = fixture20
        out = io.StringIO()
        write_dictionary(generated, out)
        reparsed = parse_dictionary(io.StringIO(out.getvalue()), name=generated.name)
        assert reparsed.keys() == generated.keys()
        for key in generated.keys():
            assert reparsed.get(*key) == generated.get(*key)

    def test_two_writes_are_byte_identical(self, fixture20):
        generated, _ = fixture20
        first, second = io.StringIO(), io.StringIO()
        write_dictionary(generated, first)
        write_dictionary(generated, second)
        assert first.getvalue() == second.getvalue()

    def test_output_is_sorted_by_key(self, fixture20):
        generated, _ = fixture20
        out = io.StringIO()
        write_dictionary(generated, out)
        lemmas = [json.loads(line)["lemma"] for line in out.getvalue().splitlines()]
        assert lemmas == sorted(lemmas)

    def test_byte_count_matches_output(self):
        d = make_dictionary("d", make_entry("ñandú", "Nombre masculino", "Ave corredora americana."))
        out = io.StringIO()
        count = write_dictionary(d, out)
        assert count == len(out.getvalue().encode("utf-8"))


_LEMMAS = st.sampled_from(["casa", "gato", "aquí", "ñu", "sol", "mar", "pan", "flor"])
_LABELS = st.sampled_from(["Nombre masculino", "Nombre femenino", "Verbo", "Adjetivo", "Adverbio", "Interjección"])
_DEFS = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Zs"), whitelist_characters="áéíóúñü.,"),
    min_size=1,
    max_size=40,
).map(lambda s: s.strip()).filter(bool)


@st.composite
def dictionaries(draw) -> Dictionary:
    d = Dictionary(name="random")
    for lemma, label in draw(st.sets(st.tuples(_LEMMAS, _LABELS), max_size=6)):
        senses = tuple(
            Sense(definition=text, example=draw(st.one_of(st.none(), _DEFS)), ordinal=i)
            for i, text in enumerate(draw(st.lists(_DEFS, min_size=1, max_size=3)), start=1)
        )
        entry = DictionaryEntry(lemma=lemma, pos=PosTag.from_label(label), senses=senses)
        if entry.key not in d:
            d.add(entry)
    return d


class TestRoundTripProperties:
    @settings(max_examples=50)
    @given(dictionaries())
    def test_dictionary_round_trip(self, d):
        out = io.StringIO()
        write_dictionary(d, out)
        reparsed = parse_dictionary(io.StringIO(out.getvalue()), name="random")
        assert reparsed.keys() == d.keys()
        for key in d.keys():
            assert reparsed.get(*key) == d.get(*key)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                _LEMMAS,
                st.one_of(st.none(), _LABELS),
                st.sampled_from(list(FailureReason)),
                _DEFS,
            ),
            max_size=8,
        )
    )
    def test_failures_round_trip(self, rows):
        failures = [
            GenerationFailure(lemma, PosTag.from_label(label) if label else None, reason, detail)
            for lemma, label, reason, detail in rows
        ]
        out = io.StringIO()
        write_failures(failures, out)
        assert parse_failures(io.StringIO(out.getvalue())) == failures


class TestFailures:
    def test_refusal_record(self):
        failure = GenerationFailure(
            "jaharrar",
            PosTag.from_label("Verbo"),
            FailureReason.REFUSAL,
            "Desconocido, no tengo información para generar una definición.",
        )
        out = io.StringIO()
        write_failures([failure], out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["reason"] == "refusal"

    def test_empty_list_empty_file(self):
        out = io.StringIO()
        assert write_failures([], out) == 0
        assert out.getvalue() == ""

    def test_mixed_reasons_round_trip(self):
        failures = [
            GenerationFailure("uno", None, FailureReason.PROVIDER_ERROR, "HTTP 500"),
            GenerationFailure("dos", PosTag.from_label("Verbo"), FailureReason.PARSE_ERROR, "missing"),
            GenerationFailure("tres", None, FailureReason.REFUSAL, "Desconocido."),
            GenerationFailure("cuatro", None, FailureReason.TRUNCATED, "reply cut at max_output_tokens = 20"),
        ]
        out = io.StringIO()
        write_failures(failures, out)
        assert parse_failures(io.StringIO(out.getvalue())) == failures

    def test_unknown_reason_rejected(self):
        line = json.dumps({"lemma": "a", "pos": None, "reason": "gremlins", "detail": ""})
        with pytest.raises(ParseError) as exc:
            parse_failures(io.StringIO(line + "\n"))
        assert exc.value.field == "reason"

    @pytest.mark.parametrize(
        "field, value",
        [("lemma", 5), ("pos", 7), ("reason", [1]), ("detail", None), ("detail", 3)],
        ids=["lemma", "pos", "reason", "detail-null", "detail-number"],
    )
    def test_non_string_field_rejected(self, field, value):
        record = {"lemma": "a", "pos": None, "reason": "refusal", "detail": ""} | {field: value}
        with pytest.raises(ParseError) as exc:
            parse_failures(io.StringIO(json.dumps(record) + "\n"))
        assert exc.value.field == field

    def test_parse_write_parse_is_byte_identical(self, data_dir):
        original = (data_dir / "planted_failures.jsonl").read_text(encoding="utf-8")
        extra = {"lemma": "ñu", "pos": "Nombre masculino", "reason": "truncated", "detail": ""}
        original += json.dumps(extra, ensure_ascii=False) + "\n"
        written = io.StringIO()
        write_failures(parse_failures(io.StringIO(original)), written)
        assert written.getvalue() == original
        rewritten = io.StringIO()
        write_failures(parse_failures(io.StringIO(written.getvalue())), rewritten)
        assert rewritten.getvalue().encode("utf-8") == original.encode("utf-8")

    def test_planted_failures_fixture_parses(self, data_dir):
        with open(data_dir / "planted_failures.jsonl", encoding="utf-8") as fh:
            failures = parse_failures(fh)
        assert [f.reason for f in failures] == [
            FailureReason.REFUSAL,
            FailureReason.PROVIDER_ERROR,
            FailureReason.PARSE_ERROR,
        ]
