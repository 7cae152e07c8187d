"""Evaluation report assembly, serialization and table rendering.

The report file is self-contained: every rendered table is recomputable
from it alone, and it embeds the effective configuration plus input
digests so any number can be traced back to exact inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import os
from contextlib import ExitStack, closing, contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np
import orjson

from .alignment import align_dictionaries, all_pairs_scores, rank_histogram, write_alignments
from .embedding import vector_tables
from .error_analysis import (
    ErrorAnalysisConfig,
    ErrorCategory,
    ErrorFinding,
    Candidate,
    classify_errors,
    findings_of_entries,
    hallucination_candidates,
    write_findings,
)
from .exceptions import ParseError
from .generation import FailureReason, GenerationFailure
from .ingestion import write_records
from .metrics import (
    GROUP_ORDER,
    ClassMetrics,
    ConfusionMatrix2x2,
    LengthStats,
    StatsSummary,
    class_metrics,
    cosine_stats,
    cosine_values,
    length_stats,
    polysemy_confusion,
)
from .model import CATEGORY_VALUES, Dictionary, csr_rows, take, vocabulary_join

_GROUP_LABELS = {
    "all": "All",
    "noun": "Nouns",
    "adjective": "Adjectives",
    "verb": "Verbs",
    "adverb": "Adverbs",
    "other": "Other",
}


@contextmanager
def atomic_text(*paths: str | Path) -> Iterator[tuple[io.TextIOWrapper, ...]]:
    """One stream per path, each written to a temp file; no partial outputs.

    Each temp file is created exclusively under a random name in its
    target's directory, with the mode the umask leaves, which the rename
    keeps. Every stream is closed, and so flushed, before any file is
    renamed into place, and the first path is renamed last. If the body or
    a write fails, every temp file is removed and no target changes.
    """
    pending: list[tuple[Path, Path]] = []  # (temp file, target), not yet renamed
    streams: list[io.TextIOWrapper] = []
    try:
        with ExitStack() as stack:
            for path in map(Path, paths):
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp_name = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
                streams.append(stack.enter_context(open(tmp_name, "x", encoding="utf-8", newline="")))
                pending.append((tmp_name, path))
            yield tuple(streams)
        while pending:
            os.replace(*pending[-1])
            pending.pop()
    except BaseException:
        for tmp_name, _ in pending:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        raise


def file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class EvaluationReport:
    join_size: int
    confusion: ConfusionMatrix2x2
    class_metrics: dict[str, ClassMetrics]
    cosine_monosemous_gold: dict[str, StatsSummary]
    cosine_polysemous_gold: dict[str, StatsSummary]
    length_generated: dict[str, LengthStats]
    length_gold: dict[str, LengthStats]
    rank_histogram: dict[int, int]
    error_summary: dict[str, int]
    circularity_rate: float
    config_snapshot: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "join_size": self.join_size,
            # always 0, since the join holds only keys present on both sides;
            # kept because perfbench's gate and existing report files read it
            "skipped_keys": 0,
            "confusion": asdict(self.confusion),
            "class_metrics": {k: asdict(v) for k, v in self.class_metrics.items()},
            "cosine_monosemous_gold": {k: asdict(v) for k, v in self.cosine_monosemous_gold.items()},
            "cosine_polysemous_gold": {k: asdict(v) for k, v in self.cosine_polysemous_gold.items()},
            "length_stats": {
                "generated": {k: asdict(v) for k, v in self.length_generated.items()},
                "gold": {k: asdict(v) for k, v in self.length_gold.items()},
            },
            "rank_histogram": {str(k): v for k, v in sorted(self.rank_histogram.items())},
            "error_summary": dict(sorted(self.error_summary.items())),
            "circularity_rate": self.circularity_rate,
            "config": self.config_snapshot,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationReport":
        try:
            lengths = data["length_stats"]
            return cls(
                join_size=int(data["join_size"]),
                confusion=ConfusionMatrix2x2(**data["confusion"]),
                class_metrics={k: ClassMetrics(**v) for k, v in data["class_metrics"].items()},
                cosine_monosemous_gold={
                    k: StatsSummary(**v) for k, v in data["cosine_monosemous_gold"].items()
                },
                cosine_polysemous_gold={
                    k: StatsSummary(**v) for k, v in data["cosine_polysemous_gold"].items()
                },
                length_generated={k: _length_from_dict(v) for k, v in lengths["generated"].items()},
                length_gold={k: _length_from_dict(v) for k, v in lengths["gold"].items()},
                rank_histogram={int(k): int(v) for k, v in data["rank_histogram"].items()},
                error_summary={k: int(v) for k, v in data["error_summary"].items()},
                circularity_rate=float(data["circularity_rate"]),
                config_snapshot=data.get("config", {}),
                provenance=data.get("provenance", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"invalid evaluation report: {exc}") from exc


def _length_from_dict(data: dict) -> LengthStats:
    return LengthStats(words=StatsSummary(**data["words"]), characters=StatsSummary(**data["characters"]))


def _indented_json(obj) -> str:
    return orjson.dumps(obj, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE).decode()


def write_report(report: EvaluationReport, stream: IO[str]) -> None:
    stream.write(_indented_json(report.to_dict()))


def load_report(path: str | Path) -> EvaluationReport:
    return EvaluationReport.from_dict(orjson.loads(Path(path).read_bytes()))


#: Generated entries scored per ``VectorTable`` in ``evaluate_dictionaries``.
#: A block's table holds about 1,300 texts × 512 float64 (5 MB) on the
#: perfbench fixtures. At 5,000 keys, blocks of 256 peaked no lower and
#: blocks of 1,024 peaked 11 MB higher.
KEY_BLOCK = 512

#: The files ``evaluate_dictionaries`` writes under its output directory.
OUTPUT_NAMES = ("report.json", "alignments.jsonl", "polysemy_pairs.jsonl", "findings.jsonl")


def _key_blocks(generated: Dictionary, join: tuple[np.ndarray, np.ndarray]) -> Iterator[tuple[int, Dictionary, tuple]]:
    """Each ``KEY_BLOCK`` of the generated entries: its first entry's index, the block and its join pairs."""
    gen_join, gold_join = join
    for start in range(0, len(generated), KEY_BLOCK):
        block = generated.block(start, start + KEY_BLOCK)
        # the join is in key order, so a block's pairs are one run of it
        first, last = np.searchsorted(gen_join, (start, start + len(block))).tolist()
        yield start, block, (gen_join[first:last], gold_join[first:last])


def _key_block_texts(gold: Dictionary, planned: tuple[int, Dictionary, tuple]) -> set[str]:
    """Every definition of a key block's polysemous and joined entries, and of their gold entries."""
    start, block, pairs = planned
    counts = block.sense_counts
    embedded = counts > 1
    embedded[pairs[0] - start] = True
    texts = set(itertools.compress(block.definitions, np.repeat(embedded, counts).tolist()))
    texts.update(take(gold.definitions, csr_rows(gold.sense_offsets, pairs[1])))
    return texts


def evaluate_dictionaries(
    generated: Dictionary,
    gold: Dictionary,
    embedder,
    out_dir: str | Path,
    error_config: ErrorAnalysisConfig | None = None,
    failures: Sequence[GenerationFailure] | None = None,
    config_snapshot: dict | None = None,
    provenance: dict | None = None,
) -> EvaluationReport:
    """Full quantitative evaluation over the vocabulary join, written under *out_dir*.

    Writes ``alignments.jsonl``, ``polysemy_pairs.jsonl``,
    ``findings.jsonl`` and ``report.json``, and returns the report, through
    one :func:`atomic_text`: all four are written whole before any is
    renamed into place, ``report.json`` last, and a run that fails leaves
    *out_dir*'s files as they were.

    Cosine tables and the rank histogram are restricted to
    generated-monosemous pairs, matching the populations the summary
    tables describe; the confusion matrix and classification metrics use
    every join key.

    The generated entries are scored ``KEY_BLOCK`` at a time. A block is
    a slice of the generated dictionary's columns (``Dictionary.block``),
    and its join pairs the join's next run of entry indices. A block's join
    pairs and polysemous entries are scored from a ``VectorTable`` of
    their own definitions, dropped before the next block's table is
    filled, and its alignment lines and polysemy pairs are written as soon
    as it is scored. The loop keeps only each block's per-group score
    arrays for the cosine tables, the rank histogram's counts, the
    hallucination candidates and the entry findings.

    Every block's table comes from one :func:`vector_tables` stream, and
    ``classify_errors`` takes one table per ``CANDIDATE_BLOCK``
    hallucination candidates from another; a text that two blocks share
    is embedded once in each. A remote embedder sends each stream's
    requests as one ordered run over its lanes, so the next block's
    chunks are in flight while this thread scores the current block. Any
    other embedder, a cached remote one included, gets one ``embed_batch``
    call per block, made when the block is reached.

    The findings come in three runs: :func:`classify_errors` (each
    hallucination candidate in join order, each followed by its
    over-correction finding if it has one), then
    :func:`findings_of_entries` of the generated entries in key order,
    then one refusal finding per refusal in the failure log, in its
    order. ``error_summary`` counts them by category.
    """
    error_config = error_config or ErrorAnalysisConfig()
    join = vocabulary_join(generated, gold)
    gen_offsets, gold_offsets = generated.sense_offsets, gold.sense_offsets
    cosine_blocks: list[tuple[dict[str, np.ndarray], dict[str, np.ndarray]]] = []
    histogram: dict[int, int] = {}
    candidates: list[Candidate] = []
    entry_findings: list[ErrorFinding] = []
    outputs = (Path(out_dir) / name for name in OUTPUT_NAMES)
    with atomic_text(*outputs) as (report_fh, alignments_fh, pairs_fh, findings_fh):
        blocks = vector_tables(embedder, _key_blocks(generated, join), partial(_key_block_texts, gold))
        with closing(blocks):
            for (_, block, pairs), vectors in blocks:
                alignment = align_dictionaries(generated, gold, pairs, vectors)
                write_alignments(alignment, alignments_fh)
                polysemous = np.flatnonzero(alignment.gen_sense_count > 1)
                write_records(
                    (
                        {
                            "lemma": generated.lemmas[gen_index],
                            "category": CATEGORY_VALUES[generated.categories[gen_index]],
                            "scores": all_pairs_scores(
                                generated.definitions[gen_offsets[gen_index] : gen_offsets[gen_index + 1]],
                                gold.definitions[gold_offsets[gold_index] : gold_offsets[gold_index + 1]],
                                vectors,
                            ),
                        }
                        for gen_index, gold_index in zip(pairs[0][polysemous].tolist(), pairs[1][polysemous].tolist())
                    ),
                    pairs_fh,
                )
                cosine_blocks.append(cosine_values(alignment))
                for index, count in rank_histogram(alignment).items():
                    histogram[index] = histogram.get(index, 0) + count
                candidates += hallucination_candidates(alignment, error_config)
                entry_findings += findings_of_entries(block, vectors, error_config)
                del vectors, alignment  # before the next block's table is filled, so at most one is alive
        findings = classify_errors(generated, gold, candidates, embedder, error_config) + entry_findings
        findings += [
            ErrorFinding(
                lemma=failure.lemma,
                category=ErrorCategory.REFUSAL,
                evidence=failure.detail,
                pos_label=failure.pos.raw_label if failure.pos else None,
            )
            for failure in failures or ()
            if failure.reason is FailureReason.REFUSAL
        ]
        write_findings(findings, findings_fh)
        summary = {category.value: 0 for category in ErrorCategory}
        for finding in findings:
            summary[finding.category.value] += 1
        confusion = polysemy_confusion(generated, gold, join)
        cosine_monosemous_gold, cosine_polysemous_gold = cosine_stats(cosine_blocks)
        report = EvaluationReport(
            join_size=len(join[0]),
            confusion=confusion,
            class_metrics={
                "monosemy": class_metrics(confusion, "monosemy"),
                "polysemy": class_metrics(confusion, "polysemy"),
            },
            cosine_monosemous_gold=cosine_monosemous_gold,
            cosine_polysemous_gold=cosine_polysemous_gold,
            length_generated=length_stats(generated),
            length_gold=length_stats(gold),
            rank_histogram=dict(sorted(histogram.items())),
            error_summary=summary,
            circularity_rate=summary[ErrorCategory.CIRCULARITY.value] / len(generated) if len(generated) else 0.0,
            config_snapshot=config_snapshot or {},
            provenance=provenance or {},
        )
        write_report(report, report_fh)
    return report


# --- table rendering ---------------------------------------------------


def _fmt(value: float | None, places: int) -> str:
    return "n/a" if value is None else f"{value:.{places}f}"


def _table1_rows(report: EvaluationReport) -> list[list[str]]:
    m = report.confusion
    return [
        ["", "Monosemy", "Polysemy", "Total"],
        ["Monosemy", str(m.mono_mono), str(m.mono_poly), str(m.actual_mono)],
        ["Polysemy", str(m.poly_mono), str(m.poly_poly), str(m.actual_poly)],
        ["Total", str(m.pred_mono), str(m.pred_poly), str(m.total)],
    ]


def _table2_rows(report: EvaluationReport) -> list[list[str]]:
    rows = [["", "Precision", "Recall", "F1"]]
    for name in ("monosemy", "polysemy"):
        cm = report.class_metrics[name]
        rows.append([name.capitalize(), _fmt(cm.precision, 3), _fmt(cm.recall, 3), _fmt(cm.f1, 3)])
    return rows


def _stats_table_rows(groups: dict[str, StatsSummary]) -> list[list[str]]:
    rows = [["POS tag", "Mean", "Std Dev"]]
    for group in GROUP_ORDER:
        if group == "other" and group not in groups:
            continue
        summary = groups.get(group)
        rows.append(
            [
                _GROUP_LABELS[group],
                _fmt(summary.mean if summary else None, 4),
                _fmt(summary.std_dev if summary else None, 4),
            ]
        )
    return rows


def _table4_rows(report: EvaluationReport) -> list[list[str]]:
    rows = [["POS tag", "Measure", "Gold words", "Gold characters", "Generated words", "Generated characters"]]
    present = set(report.length_generated) | set(report.length_gold)
    for group in GROUP_ORDER:
        if group == "other" and group not in present:
            continue
        gold = report.length_gold.get(group)
        gen = report.length_generated.get(group)
        rows.append(
            [
                _GROUP_LABELS[group],
                "Mean",
                _fmt(gold.words.mean if gold else None, 2),
                _fmt(gold.characters.mean if gold else None, 2),
                _fmt(gen.words.mean if gen else None, 2),
                _fmt(gen.characters.mean if gen else None, 2),
            ]
        )
        rows.append(
            [
                "",
                "Std Dev",
                _fmt(gold.words.std_dev if gold else None, 2),
                _fmt(gold.characters.std_dev if gold else None, 2),
                _fmt(gen.words.std_dev if gen else None, 2),
                _fmt(gen.characters.std_dev if gen else None, 2),
            ]
        )
    return rows


def _figure1_rows(report: EvaluationReport) -> list[list[str]]:
    rows = [["best_gold_index", "count"]]
    for index, count in sorted(report.rank_histogram.items()):
        rows.append([str(index), str(count)])
    return rows


def _all_tables(report: EvaluationReport) -> dict[str, list[list[str]]]:
    return {
        "table1": _table1_rows(report),
        "table2": _table2_rows(report),
        "table3": _stats_table_rows(report.cosine_monosemous_gold),
        "table4": _table4_rows(report),
        "table5": _stats_table_rows(report.cosine_polysemous_gold),
        "figure1": _figure1_rows(report),
    }


def _write_csv(rows: list[list[str]], path: Path) -> None:
    with atomic_text(path) as (fh,):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def _write_markdown(rows: list[list[str]], path: Path) -> None:
    with atomic_text(path) as (fh,):
        header, *body = rows
        fh.write("| " + " | ".join(header) + " |\n")
        fh.write("|" + "|".join(" --- " for _ in header) + "|\n")
        for row in body:
            fh.write("| " + " | ".join(row) + " |\n")


def render_tables(report: EvaluationReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write table1..table5 and figure1 under out_dir/tables."""
    if fmt not in ("csv", "md", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    tables_dir = Path(out_dir) / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    tables = _all_tables(report)
    written: list[Path] = []
    if fmt == "json":
        path = tables_dir / "tables.json"
        payload = {name: {"header": rows[0], "rows": rows[1:]} for name, rows in tables.items()}
        with atomic_text(path) as (fh,):
            fh.write(_indented_json(payload))
        written.append(path)
        return written
    for name, rows in tables.items():
        path = tables_dir / f"{name}.{fmt}"
        if fmt == "csv":
            _write_csv(rows, path)
        else:
            _write_markdown(rows, path)
        written.append(path)
    return written
