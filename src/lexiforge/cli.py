"""Command-line interface: generate, evaluate, report, errors.

Exit codes are stable: 0 success, 2 bad configuration or arguments,
3 unreadable input, 4 unwritable output, 5 embedding service unreachable
or replying outside its wire contract.
Recorded generation failures are data, not errors; generate still exits 0.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import __version__
from .alignment import write_alignments
from .config import build_embedder, build_provider, evaluation_snapshot, load_config
from .error_analysis import ErrorCategory, parse_findings, write_findings
from .exceptions import (
    ConfigError,
    DuplicateKeyError,
    EncodingError,
    LexiforgeError,
    ParseError,
    ProtocolError,
    ServiceError,
)
from .generation import run_generation
from .ingestion import (
    parse_dictionary,
    parse_failures,
    parse_lemma_list,
    write_dictionary,
    write_failures,
    write_records,
)
from .report import atomic_text, evaluate_dictionaries, file_digest, load_report, render_tables, write_report

EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_OUTPUT = 4
EXIT_SERVICE = 5


class _CliFault(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _parse_file(path, parse):
    """``parse(file)`` of the UTF-8 file at *path*, streamed; exits 3 naming *path* if it fails."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise _CliFault(EXIT_INPUT, f"cannot read {path}: {exc}") from exc
    except (ParseError, DuplicateKeyError, EncodingError) as exc:
        raise _CliFault(EXIT_INPUT, f"cannot parse {path}: {exc}") from exc


def _guarded(func):
    """Map package exceptions to the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            func(*args, **kwargs)
        except _CliFault as fault:
            click.echo(f"error: {fault.message}", err=True)
            sys.exit(fault.code)
        except ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (ServiceError, ProtocolError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SERVICE)
        except (ParseError, DuplicateKeyError, EncodingError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except OSError as exc:
            click.echo(f"error: cannot write output: {exc}", err=True)
            sys.exit(EXIT_OUTPUT)
        except LexiforgeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)

    wrapper.__name__ = func.__name__
    wrapper.__doc__ = func.__doc__
    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="lexiforge")
def main():
    """Build a dictionary from a lemma list and evaluate it against a gold standard."""


@main.command("generate")
@click.option("--lemmas", "lemmas_path", required=True, help="Lemma list file (lemma[TAB]pos per line).")
@click.option("--config", "config_path", required=True, envvar="LEXIFORGE_CONFIG", help="Config file.")
@click.option("--out", "out_path", required=True, help="Output dictionary file (JSONL).")
@click.option("--failures", "failures_path", required=True, help="Output failure log (JSONL).")
@click.option("--audit", "audit_dir", default=None, help="Directory for raw per-batch replies.")
@_guarded
def cmd_generate(lemmas_path, config_path, out_path, failures_path, audit_dir):
    """Define every lemma through the configured provider."""
    config = load_config(config_path)
    provider = build_provider(config.provider)
    parsed = _parse_file(lemmas_path, parse_lemma_list)
    if parsed.duplicate_count:
        click.echo(f"note: dropped {parsed.duplicate_count} duplicate lemma-list records", err=True)
    dictionary, failures, stats = run_generation(
        list(parsed.records), provider, config.generation, audit_dir=audit_dir
    )
    with atomic_text(out_path) as fh:
        write_dictionary(dictionary, fh)
    with atomic_text(failures_path) as fh:
        write_failures(failures, fh)
    click.echo(
        f"defined {len(dictionary)} of {len(parsed.records)} lemmas "
        f"({len(failures)} failures) in {stats.batch_count} batches, {stats.requests} requests; "
        f"retries {stats.retries}, tokens {stats.prompt_tokens}+{stats.completion_tokens}, "
        f"elapsed {stats.wall_seconds:.2f}s"
    )


@main.command("evaluate")
@click.option("--generated", "generated_path", required=True, help="Generated dictionary file.")
@click.option("--gold", "gold_path", required=True, help="Gold-standard dictionary file.")
@click.option(
    "--embedder",
    "embedder_choice",
    type=click.Choice(["deterministic", "remote"]),
    default="deterministic",
    show_default=True,
)
@click.option("--config", "config_path", required=True, envvar="LEXIFORGE_CONFIG", help="Config file.")
@click.option("--out", "out_dir", required=True, help="Output directory.")
@click.option("--failures", "failures_path", default=None, help="Failure log to fold refusals into findings.")
@_guarded
def cmd_evaluate(generated_path, gold_path, embedder_choice, config_path, out_dir, failures_path):
    """Score a generated dictionary against the gold standard."""
    config = load_config(config_path)
    embedder = build_embedder(embedder_choice, config.embedding)
    try:
        generated = _parse_file(generated_path, parse_dictionary)
        gold = _parse_file(gold_path, parse_dictionary)
        failures = _parse_file(failures_path, parse_failures) if failures_path else None

        result = evaluate_dictionaries(
            generated,
            gold,
            embedder,
            error_config=config.error_analysis,
            include_examples=config.embedding.include_examples,
            failures=failures,
            config_snapshot=evaluation_snapshot(embedder_choice, config),
            provenance={
                "generated_file": str(Path(generated_path).name),
                "generated_digest": file_digest(generated_path),
                "gold_file": str(Path(gold_path).name),
                "gold_digest": file_digest(gold_path),
                "embedder": embedder.identifier,
            },
        )

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(result.report, out / "report.json")
        with atomic_text(out / "alignments.jsonl") as fh:
            write_alignments(result.records, fh)
        with atomic_text(out / "findings.jsonl") as fh:
            write_findings(result.findings, fh)
        with atomic_text(out / "polysemy_pairs.jsonl") as fh:
            write_records(result.polysemy_pairs, fh)
        click.echo(
            f"evaluated {result.report.join_size} join keys; "
            f"confusion [{result.report.confusion.mono_mono}, {result.report.confusion.mono_poly}; "
            f"{result.report.confusion.poly_mono}, {result.report.confusion.poly_poly}]; "
            f"{sum(result.report.error_summary.values())} findings -> {out}"
        )
    finally:
        # the remote embedder keeps a connection open, and a cache its append handle
        close = getattr(embedder, "close", None)
        if close is not None:
            close()


def _resolve_report_path(eval_path: str) -> Path:
    path = Path(eval_path)
    if path.is_dir():
        path = path / "report.json"
    if not path.exists():
        raise _CliFault(EXIT_INPUT, f"no evaluation report at {path}")
    return path


@main.command("report")
@click.option("--eval", "eval_path", required=True, help="Evaluation output directory or report.json.")
@click.option("--format", "fmt", type=click.Choice(["csv", "md", "json"]), default="csv", show_default=True)
@click.option("--out", "out_dir", required=True, help="Directory receiving tables/.")
@_guarded
def cmd_report(eval_path, fmt, out_dir):
    """Render the evaluation tables and histogram data."""
    path = _resolve_report_path(eval_path)
    try:
        report = load_report(path)
    except (OSError, ValueError, ParseError) as exc:
        raise _CliFault(EXIT_INPUT, f"cannot load report {path}: {exc}") from exc
    written = render_tables(report, fmt, out_dir)
    click.echo(f"wrote {len(written)} file(s) under {Path(out_dir) / 'tables'}")


@main.command("errors")
@click.option("--eval", "eval_path", required=True, help="Evaluation output directory.")
@click.option("--category", "category", required=True, help="Finding category to list.")
@click.option("--limit", "limit", type=click.IntRange(min=0), default=20, show_default=True)
@_guarded
def cmd_errors(eval_path, category, limit):
    """List findings of one category with both definitions side by side."""
    valid = [c.value for c in ErrorCategory]
    if category not in valid:
        raise _CliFault(EXIT_CONFIG, f"unknown category {category!r}; valid: {', '.join(valid)}")
    eval_dir = Path(eval_path)
    if eval_dir.is_file():
        eval_dir = eval_dir.parent
    findings_path = eval_dir / "findings.jsonl"
    if not findings_path.exists():
        raise _CliFault(EXIT_INPUT, f"no findings file at {findings_path}")
    findings = [f for f in _parse_file(findings_path, parse_findings) if f.category.value == category]
    click.echo(f"{len(findings)} finding(s) in category {category}")
    for finding in findings[:limit]:
        click.echo(f"- {finding.lemma} [{finding.pos_label or '-'}]: {finding.evidence}")
        if finding.generated_definition is not None:
            click.echo(f"    generated: {finding.generated_definition}")
        if finding.gold_definition is not None:
            click.echo(f"    gold:      {finding.gold_definition}")


if __name__ == "__main__":
    main()
