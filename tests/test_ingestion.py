import io
import json

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lexiforge.exceptions import DuplicateKeyError, ParseError
from lexiforge.generation import FailureReason, GenerationFailure
from lexiforge.ingestion import (
    ARRAY,
    BOOLEAN,
    STRING,
    STRING_OR_NULL,
    RecordKind,
    parse_dictionary,
    parse_failures,
    parse_lemma_list,
    read_records,
    write_dictionary,
    write_failures,
    write_records,
)
from lexiforge.model import Dictionary, DictionaryEntry, PosCategory, PosTag, Sense, is_monosemous

from _oracles import oracle_key, oracle_parse_dictionary
from conftest import DATA_DIR, assert_checked, make_dictionary, make_entry


class TestParseLemmaList:
    def test_plain_and_tagged_records(self):
        result = parse_lemma_list(io.StringIO("casa\ngato\tNombre masculino\n"))
        assert [(r.lemma, r.pos.category if r.pos else None) for r in result.records] == [
            ("casa", None),
            ("gato", PosCategory.NOUN),
        ]
        assert result.records[1].pos.raw_label == "Nombre masculino"

    def test_skips_comments_and_blanks(self):
        result = parse_lemma_list(io.StringIO("# comment\n\ncasa\n"))
        assert [r.lemma for r in result.records] == ["casa"]
        assert result.duplicate_count == 0

    def test_two_tabs_is_an_error_with_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_lemma_list(io.StringIO("casa\nx\ty\tz\n"))
        assert exc.value.line_number == 2

    def test_blank_lemma_is_an_error(self):
        with pytest.raises(ParseError) as exc:
            parse_lemma_list(io.StringIO("casa\n \tVerbo\n"))
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("line", ["casa\t", "casa\t "])
    def test_blank_label_after_tab_is_an_error(self, line):
        with pytest.raises(ParseError, match="empty POS label after TAB") as exc:
            parse_lemma_list(io.StringIO("gato\n" + line + "\n"))
        assert exc.value.line_number == 2

    def test_duplicates_keep_first_and_are_counted(self):
        text = "casa\nCASA\ncasa\tNombre femenino\ncasa\tnombre FEMENINO\n"
        result = parse_lemma_list(io.StringIO(text))
        assert [(r.lemma, r.pos.category if r.pos else None) for r in result.records] == [
            ("casa", None),
            ("casa", PosCategory.NOUN),
        ]
        assert result.duplicate_count == 2
        assert len(result.records) + result.duplicate_count == 4

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
        assert len(result.records) + result.duplicate_count == len(rows)


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
        assert [s.definition for s in entry.senses] == ["Asiento largo.", "Entidad financiera."]

    def test_fixture20_hand_counts(self, fixture20):
        generated, gold = fixture20
        # hand-counted in the committed fixture files
        assert len(generated) == len(gold) == 20
        assert sum(1 for e in generated.entries() if not is_monosemous(e)) == 4
        assert sum(1 for e in gold.entries() if not is_monosemous(e)) == 8

    def test_duplicate_key_reports_line(self):
        lines = [
            json.dumps({"lemma": lemma, "pos": label, "senses": [{"definition": "Edificio.", "example": None}]})
            for lemma, label in [("casa", "Nombre femenino"), ("sol", "Nombre masculino"), ("Casa", "Nombre masculino")]
        ]
        with pytest.raises(DuplicateKeyError) as exc:
            parse_dictionary(io.StringIO("\n".join(lines) + "\n"))
        assert exc.value.line_number == 3
        assert str(exc.value) == "line 3: duplicate key ('casa', 'noun')"

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

    def test_blank_lemma_rejected(self):
        good = {"lemma": "sol", "pos": "Nombre masculino", "senses": [{"definition": "Estrella.", "example": None}]}
        with pytest.raises(ParseError) as exc:
            parse_dictionary([json.dumps(good), json.dumps(good | {"lemma": " \t"})])
        assert exc.value.line_number == 2 and "lemma is empty" in str(exc.value)


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
        assert write_dictionary(Dictionary([]), out) == 0
        assert out.getvalue() == ""

    def test_round_trip_identity_on_fixture(self, fixture20):
        generated, _ = fixture20
        out = io.StringIO()
        write_dictionary(generated, out)
        reparsed = parse_dictionary(io.StringIO(out.getvalue()))
        assert reparsed.entries() == generated.entries()

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
        d = make_dictionary(make_entry("ñandú", "Nombre masculino", "Ave corredora americana."))
        out = io.StringIO()
        count = write_dictionary(d, out)
        assert count == len(out.getvalue().encode("utf-8"))


class TestWriteRecords:
    RECORDS = [
        {"lemma": "ñu", "scores": [1e-05, 0.1, -0.3333333333333333, 1e16, 1.5e-07, 2.0, -0.0], "pos": None},
        {"lemma": 'dice "sí"\t\\', "scores": [], "pos": "Nombre\u2028masculino"},
    ]
    KIND = RecordKind(lemma=STRING, scores=ARRAY, pos=STRING_OR_NULL)

    def test_line_format_is_pinned(self):
        out = io.StringIO()
        written = write_records(self.RECORDS, out)
        assert out.getvalue() == (
            '{"lemma":"ñu","scores":[0.00001,0.1,-0.3333333333333333,1e16,1.5e-7,2.0,-0.0],"pos":null}\n'
            '{"lemma":"dice \\"sí\\"\\t\\\\","scores":[],"pos":"Nombre\u2028masculino"}\n'
        )
        assert written == len(out.getvalue().encode("utf-8"))

    def test_round_trips_through_read_records(self):
        out = io.StringIO()
        write_records(self.RECORDS, out)
        read = [obj for _, obj in read_records(io.StringIO(out.getvalue()), self.KIND)]
        assert read == self.RECORDS
        assert [[score.hex() for score in obj["scores"]] for obj in read] == [
            [score.hex() for score in obj["scores"]] for obj in self.RECORDS
        ]

    def test_writes_to_a_text_stream_with_one_newline_per_record(self):
        out = io.StringIO()
        write_records([{"flag": True}, {"flag": False}], out)
        assert out.getvalue().splitlines() == ['{"flag":true}', '{"flag":false}']
        assert [obj for _, obj in read_records(io.StringIO(out.getvalue()), RecordKind(flag=BOOLEAN))] == [
            {"flag": True},
            {"flag": False},
        ]


_LEMMAS = st.sampled_from(["casa", "gato", "aquí", "ñu", "sol", "mar", "pan", "flor"])
_LABELS = st.sampled_from(["Nombre masculino", "Nombre femenino", "Verbo", "Adjetivo", "Adverbio", "Interjección"])
_DEFS = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Zs"), whitelist_characters="áéíóúñü.,"),
    min_size=1,
    max_size=40,
).map(lambda s: s.strip()).filter(bool)


@st.composite
def dictionaries(draw) -> Dictionary:
    entries = {}
    for lemma, label in draw(st.sets(st.tuples(_LEMMAS, _LABELS), max_size=6)):
        senses = tuple(
            Sense(definition=text, example=draw(st.one_of(st.none(), _DEFS)))
            for text in draw(st.lists(_DEFS, min_size=1, max_size=3))
        )
        entry = DictionaryEntry(lemma=lemma, pos=PosTag.from_label(label), senses=senses)
        entries.setdefault(entry.key, entry)  # two labels of one category share a key
    return Dictionary(entries.values())


# spellings of each lemma a file may hold: case, padding, a decomposed ñ
_FILE_LEMMAS = [["casa", " Casa", "CASA\t"], ["mañana", "man\u0303ana", "MAÑANA "], ["ñu", "Ñu"]]
# labels with their category, two of them nouns; "Adverbio" is kept for the one free-text lemma below
_FILE_LABELS = [("Nombre masculino", "noun"), (" nombre femenino", "noun"), ("Verbo", "verb"), ("Adjetivo", "adjective")]
_PADDED = st.builds(
    "{}{}{}".format, st.sampled_from(["", " ", "\t", "\u00a0"]), _DEFS, st.sampled_from(["", " ", "\n"])
)


@st.composite
def dictionary_lines(draw) -> list[str]:
    """JSON lines that parse: unpadded and padded spellings, no key twice."""
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, len(_FILE_LEMMAS) - 1), st.sampled_from(_FILE_LABELS)),
            unique_by=lambda key: (key[0], key[1][1]),
            max_size=6,
        )
    )
    records = [(draw(st.sampled_from(_FILE_LEMMAS[i])), label) for i, (label, _) in keys]
    records.append((draw(st.text(min_size=1, max_size=6).filter(str.strip)), "Adverbio"))
    senses = st.lists(st.fixed_dictionaries({"definition": _PADDED, "example": st.one_of(st.none(), _PADDED)}), min_size=1, max_size=3)
    return [json.dumps({"lemma": lemma, "pos": label, "senses": draw(senses)}) for lemma, label in records]


class TestParseDictionaryProperties:
    @seed(23)
    @settings(max_examples=100)
    @given(dictionary_lines())
    def test_every_entry_holds_what_the_model_relies_on(self, lines):
        dictionary = parse_dictionary(io.StringIO("\n".join(lines)))
        assert len(dictionary) == len(lines)
        assert_checked(dictionary.entries())


class TestRoundTripProperties:
    @settings(max_examples=50)
    @given(dictionaries())
    def test_dictionary_round_trip(self, d):
        out = io.StringIO()
        write_dictionary(d, out)
        reparsed = parse_dictionary(io.StringIO(out.getvalue()))
        assert reparsed.entries() == d.entries()

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


def entry_tuples(dictionary):
    """``oracle_parse_dictionary``'s form of each entry of *dictionary*, in ``entries()`` order."""
    return [
        (e.lemma, e.pos.category.value, e.pos.raw_label, tuple((s.definition, s.example) for s in e.senses))
        for e in dictionary.entries()
    ]


# spellings whose keys collide after trimming, NFC and case folding (ß folds to ss), and labels
# of every category, padded, and the empty label (other)
_PARITY_LEMMAS = ["casa", " Casa", "CASA\t", "mañana", "man\u0303ana", "ñu", "Ñu", "straße", "STRASSE", "sol"]
_PARITY_LABELS = [
    "Nombre masculino", " nombre femenino", "Sustantivo", "Verbo", "Adjetivo ", "ADVERBIO", "Locución adverbial", "",
]
_PARITY_SENSE = st.fixed_dictionaries(
    {"definition": _PADDED, "example": st.one_of(st.none(), _PADDED, st.sampled_from(["", " \t"]))}
)


def parity_records(min_size=0):
    """Dictionary records that parse, no key twice, in drawn order."""
    record = st.fixed_dictionaries(
        {
            "lemma": st.sampled_from(_PARITY_LEMMAS),
            "pos": st.sampled_from(_PARITY_LABELS),
            "senses": st.lists(_PARITY_SENSE, min_size=1, max_size=3),
        }
    )
    return st.lists(record, min_size=min_size, max_size=8, unique_by=lambda r: oracle_key(r["lemma"], r["pos"]))


def _with_sense(record, index, **changes):
    senses = list(record["senses"])
    senses[index] = senses[index] | changes
    return record | {"senses": senses}


# one way each to break a record; *other* is a record on an earlier line
CORRUPTIONS = {
    "invalid JSON": lambda r, other: json.dumps(r)[:-1],
    "not an object": lambda r, other: json.dumps([r]),
    "missing field": lambda r, other: json.dumps({k: v for k, v in r.items() if k != "pos"}),
    "extra field": lambda r, other: json.dumps(r | {"note": "x"}),
    "lemma type": lambda r, other: json.dumps(r | {"lemma": 5}),
    "pos type": lambda r, other: json.dumps(r | {"pos": None}),
    "senses type": lambda r, other: json.dumps(r | {"senses": r["senses"][0]}),
    "empty senses": lambda r, other: json.dumps(r | {"senses": []}),
    "sense not an object": lambda r, other: json.dumps(r | {"senses": r["senses"] + ["Astro."]}),
    "missing sense field": lambda r, other: json.dumps(r | {"senses": [{"definition": "Astro."}]}),
    "extra sense field": lambda r, other: json.dumps(_with_sense(r, 0, note="x")),
    "definition type": lambda r, other: json.dumps(_with_sense(r, -1, definition=None)),
    "example type": lambda r, other: json.dumps(_with_sense(r, -1, example=3)),
    "blank definition": lambda r, other: json.dumps(_with_sense(r, -1, definition=" \t")),
    "blank lemma": lambda r, other: json.dumps(r | {"lemma": " \t"}),
    "duplicate key": lambda r, other: json.dumps(r | {"lemma": other["lemma"].upper(), "pos": other["pos"]}),
}


@st.composite
def parity_lines(draw, records):
    """The JSON lines of *records*, with a blank line or two among them; returns (lines, each record's line index)."""
    lines, positions = [], []
    for record in records:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        positions.append(len(lines))
        lines.append(json.dumps(record, ensure_ascii=draw(st.booleans())))
    return lines, positions


class TestParserParity:
    """``parse_dictionary`` against the line-by-line oracle of README's Dictionary rules."""

    @seed(29)
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_valid_files_give_the_oracles_entries(self, data):
        lines, _ = data.draw(parity_lines(data.draw(parity_records())))
        assert entry_tuples(parse_dictionary(lines)) == oracle_parse_dictionary(lines)

    @seed(29)
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_corrupted_line_fails_as_in_the_oracle(self, data):
        kind = data.draw(st.sampled_from(sorted(CORRUPTIONS)))
        records = data.draw(parity_records(min_size=2 if kind == "duplicate key" else 1))
        lines, positions = data.draw(parity_lines(records))
        at = data.draw(st.integers(1 if kind == "duplicate key" else 0, len(records) - 1))
        other = records[data.draw(st.integers(0, at - 1))] if kind == "duplicate key" else None
        lines[positions[at]] = CORRUPTIONS[kind](records[at], other)
        if kind == "duplicate key":
            lines.append(json.dumps(records[0]))  # a later repeat: the error names the first
        with pytest.raises((ParseError, DuplicateKeyError)) as expected:
            oracle_parse_dictionary(lines)
        assert expected.value.line_number == positions[at] + 1
        with pytest.raises(type(expected.value)) as got:
            parse_dictionary(lines)
        assert got.value.line_number == expected.value.line_number
        assert getattr(got.value, "field", None) == getattr(expected.value, "field", None)


class TestColumnsAndEntries:
    @settings(max_examples=50)
    @given(dictionaries())
    def test_constructor_and_parser_agree(self, built):
        out = io.StringIO()
        write_dictionary(built, out)
        parsed = parse_dictionary(io.StringIO(out.getvalue()))
        assert parsed.entries() == built.entries() and len(parsed) == len(built)
        for lemma in ["casa", "gato", "aquí", "ñu", "sol", "mar", "pan", "flor", "zzz"]:
            for category in PosCategory:
                assert parsed.get(lemma, category) == built.get(lemma, category)
                present = built.get(lemma, category) is not None
                assert ((lemma, category) in parsed) == ((lemma, category) in built) == present

    @pytest.mark.parametrize("name", ["planted_generated", "planted_gold", "fixture20_generated", "fixture20_gold"])
    def test_write_parse_write_is_byte_identical(self, name):
        with open(DATA_DIR / f"{name}.jsonl", encoding="utf-8") as fh:
            dictionary = parse_dictionary(fh)
        first, second = io.StringIO(), io.StringIO()
        write_dictionary(dictionary, first)
        write_dictionary(parse_dictionary(io.StringIO(first.getvalue())), second)
        assert first.getvalue() and second.getvalue() == first.getvalue()


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
        # the fixture's lines, and one more, in the writer's compact form
        lines = (data_dir / "planted_failures.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        records.append({"lemma": "ñu", "pos": "Nombre masculino", "reason": "truncated", "detail": ""})
        original = "".join(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n" for record in records)
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
