"""Parsers and writers for the on-disk artifacts: lemma lists, dictionary
files and failure logs. All three formats are line-delimited UTF-8 and
round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

from .exceptions import DuplicateKeyError, EmptyLemmaError, EncodingError, ParseError
from .generation import FailureReason, GenerationFailure, LemmaRecord
from .model import Dictionary, DictionaryEntry, PosTag, Sense, normalize_lemma


def _exact_fields(*names: str) -> Callable[[dict, int, str], None]:
    """A check that a record holds exactly the fields *names*, for ``check(obj, line, where)``.

    A record's keys are compared once with a frozenset built here; the
    differences are computed only to name an error, missing fields in
    the order of *names*.
    """
    allowed = frozenset(names)

    def check(obj: dict, line: int, where: str) -> None:
        if obj.keys() == allowed:
            return
        extra = obj.keys() - allowed
        if extra:
            raise ParseError(f"unexpected field(s) {sorted(extra)}", line_number=line, field=where)
        missing = [k for k in names if k not in obj]
        raise ParseError(f"missing field(s) {missing}", line_number=line, field=where)

    return check


_check_dict_fields = _exact_fields("lemma", "pos", "senses")
_check_sense_fields = _exact_fields("definition", "example")
_check_failure_fields = _exact_fields("lemma", "pos", "reason", "detail")


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


def _parse_senses(raw_senses: object, line: int) -> tuple[Sense, ...]:
    if not isinstance(raw_senses, list) or not raw_senses:
        raise ParseError("senses must be a non-empty array", line_number=line, field="senses")
    senses = []
    for i, raw in enumerate(raw_senses, start=1):
        where = f"senses[{i - 1}]"
        if not isinstance(raw, dict):
            raise ParseError("sense must be an object", line_number=line, field=where)
        _check_sense_fields(raw, line, where)
        definition = raw["definition"]
        if not isinstance(definition, str) or not definition.strip():
            raise ParseError("definition must be a non-empty string", line_number=line, field=f"{where}.definition")
        example = raw["example"]
        if example is not None and not isinstance(example, str):
            raise ParseError("example must be a string or null", line_number=line, field=f"{where}.example")
        example = example.strip() if isinstance(example, str) and example.strip() else None
        senses.append(Sense(definition=definition.strip(), example=example, ordinal=i))
    return tuple(senses)


def parse_dictionary(stream: Iterable[str], name: str = "dictionary") -> Dictionary:
    """Parse one JSON entry per line; sense ordinals follow file order."""
    dictionary = Dictionary(name=name)
    tags = _PosTags()
    for number, line in _numbered_lines(stream):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_number=number) from exc
        if not isinstance(obj, dict):
            raise ParseError("record must be a JSON object", line_number=number)
        _check_dict_fields(obj, number, "record")
        if not isinstance(obj["lemma"], str) or not isinstance(obj["pos"], str):
            raise ParseError("lemma and pos must be strings", line_number=number, field="lemma/pos")
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


def _entry_to_json(entry: DictionaryEntry) -> str:
    obj = {
        "lemma": entry.lemma,
        "pos": entry.pos.raw_label,
        "senses": [{"definition": s.definition, "example": s.example} for s in entry.senses],
    }
    return json.dumps(obj, ensure_ascii=False)


def write_dictionary(dictionary: Dictionary, stream: IO[str]) -> int:
    """Write entries sorted by (lemma, category); returns bytes written.

    Output is byte-deterministic, and ``parse_dictionary`` reproduces the
    dictionary exactly.
    """
    written = 0
    for entry in dictionary.entries():
        line = _entry_to_json(entry) + "\n"
        stream.write(line)
        written += len(line.encode("utf-8"))
    return written


def write_failures(failures: Iterable[GenerationFailure], stream: IO[str]) -> int:
    written = 0
    for failure in failures:
        obj = {
            "lemma": failure.lemma,
            "pos": failure.pos.raw_label if failure.pos else None,
            "reason": failure.reason.value,
            "detail": failure.detail,
        }
        line = json.dumps(obj, ensure_ascii=False) + "\n"
        stream.write(line)
        written += len(line.encode("utf-8"))
    return written


def parse_failures(stream: Iterable[str]) -> list[GenerationFailure]:
    failures: list[GenerationFailure] = []
    tags = _PosTags()
    reasons = {r.value: r for r in FailureReason}
    for number, line in _numbered_lines(stream):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_number=number) from exc
        if not isinstance(obj, dict):
            raise ParseError("record must be a JSON object", line_number=number)
        _check_failure_fields(obj, number, "record")
        reason, label, lemma, detail = obj["reason"], obj["pos"], obj["lemma"], obj["detail"]
        if not isinstance(reason, str) or reason not in reasons:
            raise ParseError(f"unknown reason {reason!r}", line_number=number, field="reason")
        if label is not None and not isinstance(label, str):
            raise ParseError("pos must be a string or null", line_number=number, field="pos")
        if not isinstance(lemma, str):
            raise ParseError("lemma must be a string", line_number=number, field="lemma")
        if not isinstance(detail, str):
            raise ParseError("detail must be a string", line_number=number, field="detail")
        try:
            lemma = normalize_lemma(lemma)
        except EmptyLemmaError as exc:
            raise ParseError(str(exc), line_number=number, field="lemma") from exc
        pos = tags[label] if label else None
        failures.append(GenerationFailure(lemma, pos, reasons[reason], detail))
    return failures
