"""Parsers and writers for the on-disk artifacts: lemma lists, and the
line-record files (dictionaries, failure logs and evaluation outputs).

Every line-record file is UTF-8 with one JSON object per line; blank
lines are skipped. ``read_records`` and ``write_records`` are the only
readers and writers of that format; a ``RecordKind`` names the fields a
kind of record holds, exactly, and the JSON type of each. All formats
round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .exceptions import DuplicateKeyError, EmptyLemmaError, EncodingError, ParseError
from .generation import FailureReason, GenerationFailure, LemmaRecord
from .model import Dictionary, DictionaryEntry, PosTag, Sense, normalize_lemma


class _PosTags(dict):
    """One ``PosTag`` per distinct label string of a parse, built on first use."""

    def __missing__(self, label: str) -> PosTag:
        tag = self[label] = PosTag.from_label(label)
        return tag


@dataclass(frozen=True)
class LemmaListResult:
    records: tuple[LemmaRecord, ...]
    duplicate_count: int
    content_line_count: int  # lines that were neither blank nor comments


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


# The JSON types a record field may hold: the Python types ``json.loads``
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


def read_records(stream: Iterable[str], kind: RecordKind) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of *stream*, checked against *kind*.

    Raises ParseError for a line that is not JSON or not a record of
    *kind*, and EncodingError when *stream* is not valid UTF-8.
    """
    for number, line in _numbered_lines(stream):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_number=number) from exc
        yield number, kind.check(obj, number)


# one encoder for every line: json.dumps with an option builds a new one per call
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_records(objects: Iterable[dict], stream: IO[str]) -> int:
    """One ``json.dumps(obj, ensure_ascii=False)`` line per object; returns the bytes written."""
    written = 0
    for obj in objects:
        line = _ENCODER.encode(obj) + "\n"
        stream.write(line)
        written += len(line.encode("utf-8"))
    return written


def parse_lemma_list(stream: Iterable[str]) -> LemmaListResult:
    """Read `lemma` / `lemma<TAB>pos-label` lines, in file order.

    Blank lines and `#` comments are skipped; duplicate (lemma, category)
    records keep the first occurrence, and the number of dropped
    duplicates is reported for audit.
    """
    records: list[LemmaRecord] = []
    tags = _PosTags()
    seen: set[tuple[str, object]] = set()
    duplicates = 0
    content_lines = 0
    for number, line in _numbered_lines(stream):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        content_lines += 1
        if line.count("\t") > 1:
            raise ParseError("more than one TAB on lemma-list line", line_number=number)
        lemma_part, _, label_part = line.partition("\t")
        try:
            lemma = normalize_lemma(lemma_part)
        except EmptyLemmaError as exc:
            raise ParseError(str(exc), line_number=number) from exc
        pos = None
        if label_part:
            if not label_part.strip():
                raise ParseError("empty POS label after TAB", line_number=number)
            pos = tags[label_part]
        key = (lemma, pos.category if pos else None)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        records.append(LemmaRecord(lemma=lemma, pos=pos))
    return LemmaListResult(tuple(records), duplicates, content_lines)


_DICTIONARY_RECORD = RecordKind(lemma=STRING, pos=STRING, senses=ARRAY)
_SENSE_RECORD = RecordKind(definition=STRING, example=STRING_OR_NULL)
_FAILURE_RECORD = RecordKind(lemma=STRING, pos=STRING_OR_NULL, reason=STRING, detail=STRING)


def _parse_senses(raw_senses: list, line: int) -> tuple[Sense, ...]:
    if not raw_senses:
        raise ParseError("senses must be a non-empty array", line_number=line, field="senses")
    senses = []
    for i, raw in enumerate(raw_senses):
        try:
            _SENSE_RECORD.check(raw, line)
        except ParseError:
            # the sense's path is built only for a sense that fails: checked
            # again under it, the sense raises the same error naming its field
            _SENSE_RECORD.check(raw, line, f"senses[{i}]")
        definition = raw["definition"].strip()
        if not definition:
            raise ParseError("definition must not be blank", line_number=line, field=f"senses[{i}].definition")
        example = (raw["example"] or "").strip() or None
        senses.append(Sense(definition=definition, example=example, ordinal=i + 1))
    return tuple(senses)


def parse_dictionary(stream: Iterable[str], name: str = "dictionary") -> Dictionary:
    """Parse one JSON entry per line; sense ordinals follow file order."""
    dictionary = Dictionary(name=name)
    tags = _PosTags()
    for number, obj in read_records(stream, _DICTIONARY_RECORD):
        try:
            entry = DictionaryEntry(
                lemma=normalize_lemma(obj["lemma"]),
                pos=tags[obj["pos"]],
                senses=_parse_senses(obj["senses"], number),
            )
        except (EmptyLemmaError, ValueError) as exc:
            raise ParseError(str(exc), line_number=number) from exc
        try:
            dictionary.add(entry)
        except DuplicateKeyError:
            raise DuplicateKeyError(f"duplicate key {entry.key!r}", line_number=number) from None
    return dictionary


def write_dictionary(dictionary: Dictionary, stream: IO[str]) -> int:
    """Write entries sorted by (lemma, category); returns bytes written.

    Output is byte-deterministic, and ``parse_dictionary`` reproduces the
    dictionary exactly.
    """
    objects = (
        {
            "lemma": entry.lemma,
            "pos": entry.pos.raw_label,
            "senses": [{"definition": s.definition, "example": s.example} for s in entry.senses],
        }
        for entry in dictionary.entries()
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
    tags = _PosTags()
    reasons = {r.value: r for r in FailureReason}
    for number, obj in read_records(stream, _FAILURE_RECORD):
        reason = reasons.get(obj["reason"])
        if reason is None:
            raise ParseError(f"unknown reason {obj['reason']!r}", line_number=number, field="reason")
        try:
            lemma = normalize_lemma(obj["lemma"])
        except EmptyLemmaError as exc:
            raise ParseError(str(exc), line_number=number, field="lemma") from exc
        failures.append(GenerationFailure(lemma, tags[obj["pos"]] if obj["pos"] else None, reason, obj["detail"]))
    return failures
