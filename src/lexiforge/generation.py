"""Dictionary generation: batch a lemma list into prompts, parse replies,
and account for every input lemma as either an entry or a recorded failure.
"""

from __future__ import annotations

import enum
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .exceptions import ConfigError, EmptyLemmaError, ProviderError
from .model import Dictionary, DictionaryEntry, PosTag, Sense, normalize_lemma
from .providers import Provider, ProviderRequest

DEFAULT_REFUSAL_PATTERNS = (
    "desconocido",
    "no tengo información",
    "error tipográfico",
    "palabra inexistente",
    "sin definición conocida",
)

#: (lemma, pos label, definition, example) few-shot pairs rendered in the
#: exact reply grammar the parser expects.
DEFAULT_FEWSHOT = (
    ("limitar", "Verbo", "Poner límites o fronteras a algo.", "El muro limita la propiedad por el norte."),
    ("casa", "Nombre femenino", "Edificio o parte de él destinado a vivienda.", "La casa tiene dos plantas."),
)

DEFAULT_PROMPT_TEMPLATE = """\
Eres un lexicógrafo profesional de español. Para cada lema de la lista final,
escribe su categoría gramatical, todas las acepciones que conozcas y una
oración de ejemplo por acepción. No uses el lema dentro de su propia
definición. Responde exactamente una entrada por lema, una por línea, con
este formato; si hay más acepciones, numéralas en líneas siguientes:

{{FEWSHOT}}

Define los siguientes lemas:
{{BATCH}}
"""


class FailureReason(enum.Enum):
    PROVIDER_ERROR = "provider_error"
    PARSE_ERROR = "parse_error"
    REFUSAL = "refusal"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class GenerationFailure:
    lemma: str
    pos: PosTag | None
    reason: FailureReason
    detail: str


@dataclass(frozen=True)
class LemmaRecord:
    """One lemma to define, with an optional requested POS."""

    lemma: str
    pos: PosTag | None = None


@dataclass(frozen=True)
class GenerationConfig:
    batch_size: int = 32
    max_retries: int = 3
    retry_backoff: float = 2.0
    max_concurrent_batches: int = 4
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    fewshot_examples: tuple[tuple[str, str, str, str], ...] = DEFAULT_FEWSHOT
    temperature: float = 0.0
    max_output_tokens: int = 2048

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_concurrent_batches < 1:
            raise ConfigError(f"max_concurrent_batches must be >= 1, got {self.max_concurrent_batches}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ConfigError(f"retry_backoff must be >= 0, got {self.retry_backoff}")
        if self.prompt_template.count("{{BATCH}}") != 1:
            raise ConfigError("prompt_template must contain the {{BATCH}} placeholder exactly once")


_FIRST_WORD_RE = re.compile(r"\W*(\w*)")


def detect_refusal(definition: str) -> bool:
    """True when the definition declines to define (or is empty).

    A one-word pattern counts only as the definition's first word: a
    refusal opens with "Desconocido", while "de origen desconocido" is an
    ordinary definition. Patterns of several words count anywhere.
    """
    text = definition.strip().casefold()
    if not text:
        return True
    first_word = _FIRST_WORD_RE.match(text).group(1)
    return any(p in text if " " in p else p == first_word for p in DEFAULT_REFUSAL_PATTERNS)


def split_batches(records: Sequence[LemmaRecord], batch_size: int) -> list[list[LemmaRecord]]:
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    return [list(records[i : i + batch_size]) for i in range(0, len(records), batch_size)]


def render_reply_block(lemma: str, pos_label: str, senses: Sequence[tuple[str, str | None]]) -> str:
    """Render an entry in the reply grammar the parser understands."""
    first_def, first_ex = senses[0]
    head = f"{lemma}: {pos_label}: {first_def}"
    if first_ex:
        head += f" Ejemplo: {first_ex}"
    lines = [head]
    for i, (definition, example) in enumerate(senses[1:], start=2):
        line = f"{i}. {definition}"
        if example:
            line += f" Ejemplo: {example}"
        lines.append(line)
    return "\n".join(lines)


def _batch_line(record: LemmaRecord) -> str:
    if record.pos is not None:
        return f"{record.lemma} — {record.pos.raw_label}"
    return record.lemma


def build_prompt(batch: Sequence[LemmaRecord], config: GenerationConfig) -> str:
    """Deterministic prompt: instructions, few-shot block, batch lemma lines."""
    if not batch:
        raise ValueError("batch must be non-empty")
    fewshot = "\n".join(
        render_reply_block(lemma, label, [(definition, example)])
        for lemma, label, definition, example in config.fewshot_examples
    )
    batch_block = "\n".join(_batch_line(r) for r in batch)
    prompt = config.prompt_template.replace("{{FEWSHOT}}", fewshot)
    return prompt.replace("{{BATCH}}", batch_block)


_CONTINUATION_RE = re.compile(r"^\s*(\d+)[.)]\s*(.*\S)\s*$")
_HEAD_RE = re.compile(r"^\s*([^:]+?)\s*:\s*([^:]+?)\s*:\s*(.*\S)?\s*$")
_EXAMPLE_SPLIT_RE = re.compile(r"\bEjemplo\s*:\s*", re.IGNORECASE)
_MISSING = "lemma missing from reply"


@dataclass
class _ReplyBlock:
    lemma: str
    pos_label: str
    line: int  # index of the head line in the reply
    senses: list[tuple[str, str | None]] = field(default_factory=list)
    claimed: bool = False


def _split_sense_text(text: str) -> tuple[str, str | None]:
    parts = _EXAMPLE_SPLIT_RE.split(text, maxsplit=1)
    definition = parts[0].strip()
    example = parts[1].strip() if len(parts) > 1 and parts[1].strip() else None
    return definition, example


def _scan_reply_blocks(raw: str) -> list[_ReplyBlock]:
    blocks: list[_ReplyBlock] = []
    current: _ReplyBlock | None = None
    for number, line in enumerate(raw.splitlines()):
        if not line.strip():
            current = None
            continue
        cont = _CONTINUATION_RE.match(line)
        if cont and current is not None:
            current.senses.append(_split_sense_text(cont.group(2)))
            continue
        head = _HEAD_RE.match(line)
        if head and head.group(3):
            try:
                lemma = normalize_lemma(head.group(1))
            except EmptyLemmaError:
                current = None
                continue
            current = _ReplyBlock(lemma=lemma, pos_label=head.group(2), line=number)
            current.senses.append(_split_sense_text(head.group(3)))
            blocks.append(current)
        # anything else is stray prose; drop it
    return blocks


def _without_last_block(raw: str) -> str:
    """*raw* up to the head line of its last reply block, which a cut reply may have cut anywhere."""
    blocks = _scan_reply_blocks(raw)
    return "\n".join(raw.splitlines()[: blocks[-1].line]) if blocks else ""


def parse_model_response(
    raw: str, batch: Sequence[LemmaRecord]
) -> tuple[list[DictionaryEntry], list[GenerationFailure]]:
    """Account for every batch lemma exactly once: entry or failure.

    Reply blocks are matched to batch records by normalized lemma, and by
    POS category when the record requested one. Senses whose definition
    matches a refusal pattern are dropped; a lemma with no surviving sense
    becomes a refusal failure, a lemma absent from the reply a parse_error.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    blocks = _scan_reply_blocks(raw)
    entries: list[DictionaryEntry] = []
    failures: list[GenerationFailure] = []
    for record in batch:
        block = _claim_block(blocks, record)
        if block is None:
            failures.append(
                GenerationFailure(record.lemma, record.pos, FailureReason.PARSE_ERROR, _MISSING)
            )
            continue
        kept: list[tuple[str, str | None]] = []
        refused: list[str] = []
        for definition, example in block.senses:
            if detect_refusal(definition):
                refused.append(definition)
            else:
                kept.append((definition, example))
        if not kept:
            detail = refused[0] if refused and refused[0] else "empty definition"
            failures.append(GenerationFailure(record.lemma, record.pos, FailureReason.REFUSAL, detail))
            continue
        try:
            entry = DictionaryEntry(
                lemma=block.lemma,
                pos=PosTag.from_label(block.pos_label),
                senses=tuple(
                    Sense(definition=d, example=e, ordinal=i) for i, (d, e) in enumerate(kept, start=1)
                ),
            )
        except ValueError as exc:
            failures.append(GenerationFailure(record.lemma, record.pos, FailureReason.PARSE_ERROR, str(exc)))
            continue
        entries.append(entry)
    assert len(entries) + len(failures) == len(batch)
    return entries, failures


def _claim_block(blocks: list[_ReplyBlock], record: LemmaRecord) -> _ReplyBlock | None:
    for block in blocks:
        if block.claimed or block.lemma != record.lemma:
            continue
        if record.pos is not None and PosTag.from_label(block.pos_label).category is not record.pos.category:
            continue
        block.claimed = True
        return block
    return None


@dataclass
class RunStats:
    batch_count: int = 0
    requests: int = 0  # provider.complete calls: first attempts, retries and re-requests of cut replies
    retries: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    wall_seconds: float = 0.0


@dataclass
class _BatchOutcome:
    entries: list[DictionaryEntry]
    failures: list[GenerationFailure]
    requests: int
    retries: int
    prompt_tokens: int
    completion_tokens: int
    raw_text: str

    def extend(self, other: "_BatchOutcome") -> None:
        self.entries += other.entries
        self.failures += other.failures
        self.requests += other.requests
        self.retries += other.retries
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.raw_text += "\n\n" + other.raw_text


def _run_batch(
    provider: Provider,
    batch: list[LemmaRecord],
    config: GenerationConfig,
    sleep: Callable[[float], None],
) -> _BatchOutcome:
    """One request for *batch*, retried on transient provider errors.

    A reply cut at ``max_output_tokens`` keeps what its blocks before the
    last one yield. The lemmas those blocks leave unanswered go out again
    as one smaller request; when they answer none, the batch is split in
    half instead, and a single lemma whose reply is still cut fails as
    truncated. Every re-request is smaller than the request it comes
    from, so a batch of n lemmas costs at most 2n - 1 requests.
    """
    request = ProviderRequest(
        prompt=build_prompt(batch, config),
        lemmas=tuple(r.lemma for r in batch),
        temperature=config.temperature,
        max_tokens=config.max_output_tokens,
    )
    attempt = 0
    while True:
        try:
            response = provider.complete(request)
            break
        except ProviderError as exc:
            if not exc.retryable or attempt >= config.max_retries:
                failures = [
                    GenerationFailure(r.lemma, r.pos, FailureReason.PROVIDER_ERROR, str(exc)) for r in batch
                ]
                return _BatchOutcome([], failures, attempt + 1, attempt, 0, 0, f"<provider error: {exc}>")
            sleep(config.retry_backoff * (2**attempt))
            attempt += 1
    cut = response.finish_reason == "length"
    entries, failures = parse_model_response(_without_last_block(response.text) if cut else response.text, batch)
    outcome = _BatchOutcome(
        entries, failures, attempt + 1, attempt, response.prompt_tokens, response.completion_tokens, response.text
    )
    if not cut:
        return outcome
    unanswered = [LemmaRecord(f.lemma, f.pos) for f in failures if f.detail == _MISSING]
    outcome.failures = [f for f in failures if f.detail != _MISSING]
    if len(unanswered) < len(batch):
        parts = [unanswered] if unanswered else []
    elif len(batch) > 1:
        parts = [batch[: len(batch) // 2], batch[len(batch) // 2 :]]
    else:
        detail = f"reply cut at max_output_tokens = {config.max_output_tokens}"
        outcome.failures = [GenerationFailure(batch[0].lemma, batch[0].pos, FailureReason.TRUNCATED, detail)]
        parts = []
    for part in parts:
        outcome.extend(_run_batch(provider, part, config, sleep))
    return outcome


def run_generation(
    records: Sequence[LemmaRecord],
    provider: Provider,
    config: GenerationConfig | None = None,
    sleep: Callable[[float], None] = time.sleep,
    audit_dir: str | Path | None = None,
) -> tuple[Dictionary, list[GenerationFailure], RunStats]:
    """Run the whole pipeline: |entries| + |failures| = |records| always.

    Batches are dispatched with at most ``max_concurrent_batches`` in
    flight; results are assembled in input order regardless of completion
    order, so output files are deterministic for a deterministic provider.
    """
    config = config or GenerationConfig()
    started = time.perf_counter()
    batches = split_batches(records, config.batch_size)
    outcomes: list[_BatchOutcome] = []
    if batches:
        with ThreadPoolExecutor(max_workers=config.max_concurrent_batches) as pool:
            futures = [pool.submit(_run_batch, provider, batch, config, sleep) for batch in batches]
            outcomes = [f.result() for f in futures]

    if audit_dir is not None:
        audit_path = Path(audit_dir)
        audit_path.mkdir(parents=True, exist_ok=True)
        for i, outcome in enumerate(outcomes, start=1):
            (audit_path / f"batch_{i:04d}.txt").write_text(outcome.raw_text, encoding="utf-8")

    dictionary = Dictionary(name="generated")
    failures: list[GenerationFailure] = []
    for outcome in outcomes:
        failures.extend(outcome.failures)
        for entry in outcome.entries:
            if entry.key in dictionary:
                failures.append(
                    GenerationFailure(
                        entry.lemma,
                        entry.pos,
                        FailureReason.PARSE_ERROR,
                        f"duplicate key {entry.key[1].value!r} already produced by an earlier batch",
                    )
                )
            else:
                dictionary.add(entry)
    stats = RunStats(
        batch_count=len(batches),
        requests=sum(o.requests for o in outcomes),
        retries=sum(o.retries for o in outcomes),
        prompt_tokens=sum(o.prompt_tokens for o in outcomes),
        completion_tokens=sum(o.completion_tokens for o in outcomes),
        wall_seconds=time.perf_counter() - started,
    )
    assert len(dictionary) + len(failures) == len(records)
    return dictionary, failures, stats
