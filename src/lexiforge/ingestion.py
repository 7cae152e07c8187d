"""Parsers and writers for the on-disk artifacts: lemma lists, and the
line-record files (dictionaries, failure logs and evaluation outputs).

Every line-record file is UTF-8 with one JSON object per line; blank
lines are skipped. ``read_records`` and ``write_records`` are the only
readers and writers of that format; a ``RecordKind`` names the fields a
kind of record holds, exactly, and the JSON type of each. All formats
round-trip losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np
import orjson

from .exceptions import DuplicateKeyError, EmptyLemmaError, EncodingError, ParseError
from .generation import FailureReason, GenerationFailure, LemmaRecord
from .model import (
    CATEGORY_CODES,
    CATEGORY_VALUES,
    Dictionary,
    PosTag,
    csr_offsets,
    csr_rows,
    key_codes,
    normalize_lemma,
    take,
)


@dataclass(frozen=True)
class LemmaListResult:
    records: tuple[LemmaRecord, ...]
    duplicate_count: int


def _numbered_lines(stream: Iterable[str]) -> Iterator[tuple[int, str]]:
    iterator = enumerate(stream, start=1)
    while True:
        try:
            number, line = next(iterator)
        except StopIteration:
            return
        except UnicodeDecodeError as exc:
            raise EncodingError(f"input is not valid UTF-8: {exc}") from exc
        yield number, line.rstrip("\r\n")


# The JSON types a record field may hold: the Python types ``orjson.loads``
# gives them, and how an error names them.
STRING = ((str,), "a string")
STRING_OR_NULL = ((str, type(None)), "a string or null")
BOOLEAN = ((bool,), "true or false")
ARRAY = ((list,), "an array")


class RecordKind:
    """One kind of line record: exactly the fields given, each of its JSON type.

    Fields are given in the order an error lists the missing ones.
    """

    __slots__ = ("fields", "names", "_types")

    def __init__(self, **fields: tuple[tuple[type, ...], str]):
        self.fields = fields
        self.names = frozenset(fields)
        self._types = tuple((name, types) for name, (types, _) in fields.items())

    def check(self, obj: object, line: int, path: str = "") -> dict:
        """*obj* if it is a record of this kind, else a ParseError at *line*.

        *path* locates a record nested in another (``senses[0]``) in the
        field an error names. The keys are compared once with a frozenset;
        the differences are computed only to name an error.
        """
        where = path or "record"
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", line_number=line, field=where)
        if obj.keys() != self.names:
            extra = obj.keys() - self.names
            if extra:
                raise ParseError(f"unexpected field(s) {sorted(extra)}", line_number=line, field=where)
            missing = [name for name in self.fields if name not in obj]
            raise ParseError(f"missing field(s) {missing}", line_number=line, field=where)
        for name, types in self._types:
            if not isinstance(obj[name], types):
                kind = self.fields[name][1]
                field = f"{path}.{name}" if path else name
                raise ParseError(f"{name} must be {kind}, got {obj[name]!r}", line_number=line, field=field)
        return obj


def _json_lines(stream: Iterable[str]) -> Iterator[tuple[int, object]]:
    """(line number, decoded JSON value) for each non-blank line of *stream*."""
    for number, line in _numbered_lines(stream):
        if not line.strip():
            continue
        try:
            obj = orjson.loads(line)
        except orjson.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_number=number) from exc
        yield number, obj


def read_records(stream: Iterable[str], kind: RecordKind) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of *stream*, checked against *kind*.

    Raises ParseError for a line that is not JSON or not a record of
    *kind*, and EncodingError when *stream* is not valid UTF-8.
    """
    for number, obj in _json_lines(stream):
        yield number, kind.check(obj, number)


def write_records(objects: Iterable[dict], stream: IO[str]) -> int:
    """One ``orjson.dumps(obj)`` line per object; returns the bytes written.

    Lines are compact UTF-8 JSON: no space after ``,`` or ``:``, and floats
    in their shortest round-trip form.
    """
    written = 0
    for obj in objects:
        line = orjson.dumps(obj, option=orjson.OPT_APPEND_NEWLINE)
        stream.write(line.decode())
        written += len(line)
    return written


def parse_lemma_list(stream: Iterable[str]) -> LemmaListResult:
    """Read `lemma` / `lemma<TAB>pos-label` lines, in file order.

    Blank lines and `#` comments are skipped; duplicate (lemma, category)
    records keep the first occurrence, and the number of dropped
    duplicates is reported for audit.
    """
    records: list[LemmaRecord] = []
    tags: dict[str, PosTag] = {}  # one tag per distinct label, shared by its records
    seen: set[tuple[str, object]] = set()
    duplicates = 0
    for number, line in _numbered_lines(stream):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.count("\t") > 1:
            raise ParseError("more than one TAB on lemma-list line", line_number=number)
        lemma_part, tab, label_part = line.partition("\t")
        try:
            lemma = normalize_lemma(lemma_part)
        except EmptyLemmaError as exc:
            raise ParseError(str(exc), line_number=number) from exc
        if tab and not label_part.strip():
            raise ParseError("empty POS label after TAB", line_number=number)
        pos = (tags.get(label_part) or tags.setdefault(label_part, PosTag.from_label(label_part))) if tab else None
        key = (lemma, pos.category if pos else None)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        records.append(LemmaRecord(lemma=lemma, pos=pos))
    return LemmaListResult(tuple(records), duplicates)


_DICTIONARY_RECORD = RecordKind(lemma=STRING, pos=STRING, senses=ARRAY)
_SENSE_RECORD = RecordKind(definition=STRING, example=STRING_OR_NULL)
_FAILURE_RECORD = RecordKind(lemma=STRING, pos=STRING_OR_NULL, reason=STRING, detail=STRING)


def parse_dictionary(stream: Iterable[str], name: str | None = None) -> Dictionary:
    """Parse one JSON entry per line into a ``Dictionary``'s columns; senses keep their file order.

    Every check an entry needs runs here, once (see ``DictionaryEntry``).
    A record or sense that a type test in the loop rejects is checked
    again by its ``RecordKind``, which raises the error naming its field.
    Each distinct POS label is classified once. The distinct lemmas are
    ranked by one sort, and one stable sort of the keys as integer codes
    (``model.key_codes``) orders the entries and puts a repeated key
    beside its first entry; a DuplicateKeyError names the first line that
    repeats a key.

    *name* is unused. perfbench's generate gate still passes it, so it stays
    until that gate changes.
    """
    entry_names, sense_names = _DICTIONARY_RECORD.names, _SENSE_RECORD.names
    lemmas: list[str] = []
    numbers: list[int] = []  # each entry's line
    label_ids: list[int] = []
    labels: dict[str, int] = {}  # each distinct label string's id
    counts: list[int] = []
    definitions: list[str] = []
    examples: list[str | None] = []
    for number, obj in _json_lines(stream):
        if type(obj) is not dict or obj.keys() != entry_names:
            _DICTIONARY_RECORD.check(obj, number)
        lemma, label, senses = obj["lemma"], obj["pos"], obj["senses"]
        if type(lemma) is not str or type(label) is not str or type(senses) is not list:
            _DICTIONARY_RECORD.check(obj, number)
        try:
            lemmas.append(normalize_lemma(lemma))
        except EmptyLemmaError as exc:
            raise ParseError(str(exc), line_number=number) from exc
        if not senses:
            raise ParseError("senses must be a non-empty array", line_number=number, field="senses")
        for i, sense in enumerate(senses):
            if type(sense) is not dict or sense.keys() != sense_names:
                _SENSE_RECORD.check(sense, number, f"senses[{i}]")
            definition, example = sense["definition"], sense["example"]
            if type(definition) is not str or (example is not None and type(example) is not str):
                _SENSE_RECORD.check(sense, number, f"senses[{i}]")
            definition = definition.strip()
            if not definition:
                raise ParseError("definition must not be blank", line_number=number, field=f"senses[{i}].definition")
            definitions.append(definition)
            examples.append(example and example.strip() or None)
        counts.append(len(senses))
        label_ids.append(labels.setdefault(label, len(labels)))
        numbers.append(number)

    # labels that differ only in padding classify to equal tags, which share an id
    tags: dict[PosTag, int] = {}
    label_tags = np.array([tags.setdefault(PosTag.from_label(label), len(tags)) for label in labels], dtype=np.int32)
    tag_ids = label_tags[np.array(label_ids, dtype=np.int32)]
    categories = np.array([CATEGORY_CODES[tag.category] for tag in tags], dtype=np.int8)[tag_ids]
    ranks = {lemma: rank for rank, lemma in enumerate(sorted(dict.fromkeys(lemmas)))}
    keys = key_codes(lemmas, categories, ranks)
    order = np.argsort(keys, kind="stable")
    ordered_keys = keys[order]
    repeats = order[1:][ordered_keys[1:] == ordered_keys[:-1]]
    if repeats.size:
        first = int(repeats.min())
        key = (lemmas[first], CATEGORY_VALUES[categories[first]])
        raise DuplicateKeyError(f"duplicate key {key!r}", line_number=numbers[first])
    rows = csr_rows(csr_offsets(counts), order)
    return Dictionary.from_columns(
        take(lemmas, order),
        categories[order],
        tag_ids[order],
        tuple(tags),
        csr_offsets(np.array(counts, dtype=np.int64)[order]),
        take(definitions, rows),
        take(examples, rows),
    )


def write_dictionary(dictionary: Dictionary, stream: IO[str]) -> int:
    """Write entries sorted by (lemma, category); returns bytes written.

    Output is byte-deterministic, and ``parse_dictionary`` reproduces the
    dictionary exactly.
    """
    offsets = dictionary.sense_offsets.tolist()
    definitions, examples = dictionary.definitions, dictionary.examples
    labels = [tag.raw_label for tag in dictionary.tags]
    objects = (
        {
            "lemma": lemma,
            "pos": labels[tag_id],
            "senses": [
                {"definition": definition, "example": example}
                for definition, example in zip(definitions[start:end], examples[start:end])
            ],
        }
        for lemma, tag_id, start, end in zip(dictionary.lemmas, dictionary.tag_ids.tolist(), offsets, offsets[1:])
    )
    return write_records(objects, stream)


def write_failures(failures: Iterable[GenerationFailure], stream: IO[str]) -> int:
    objects = (
        {
            "lemma": failure.lemma,
            "pos": failure.pos.raw_label if failure.pos else None,
            "reason": failure.reason.value,
            "detail": failure.detail,
        }
        for failure in failures
    )
    return write_records(objects, stream)


def parse_failures(stream: Iterable[str]) -> list[GenerationFailure]:
    failures: list[GenerationFailure] = []
    tags: dict[str, PosTag] = {}  # one tag per distinct label, shared by its failures
    reasons = {r.value: r for r in FailureReason}
    for number, obj in read_records(stream, _FAILURE_RECORD):
        reason = reasons.get(obj["reason"])
        if reason is None:
            raise ParseError(f"unknown reason {obj['reason']!r}", line_number=number, field="reason")
        try:
            lemma = normalize_lemma(obj["lemma"])
        except EmptyLemmaError as exc:
            raise ParseError(str(exc), line_number=number, field="lemma") from exc
        label = obj["pos"]
        pos = (tags.get(label) or tags.setdefault(label, PosTag.from_label(label))) if label else None
        failures.append(GenerationFailure(lemma, pos, reason, obj["detail"]))
    return failures
