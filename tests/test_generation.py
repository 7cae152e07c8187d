import io
import json
import math
import random
import re

import pytest

from lexiforge.exceptions import ConfigError, ProviderError
from lexiforge.generation import (
    FailureReason,
    GenerationConfig,
    LemmaRecord,
    build_prompt,
    detect_refusal,
    parse_model_response,
    render_reply_block,
    run_generation,
    split_batches,
)
from lexiforge.ingestion import parse_failures, write_dictionary, write_failures
from lexiforge.model import PosCategory, PosTag
from lexiforge.providers import ProviderResponse, StubProvider


def records(*lemmas: str) -> list[LemmaRecord]:
    return [LemmaRecord(lemma=x) for x in lemmas]


def reply_for(lemma: str, label: str = "Verbo", definition: str = "Hacer algo concreto.") -> str:
    return render_reply_block(lemma, label, [(definition, f"Ejemplo con {lemma}.")])


class TestSplitBatches:
    def test_sizes_with_remainder(self):
        batches = split_batches(records(*[f"l{i}" for i in range(100)]), 32)
        assert [len(b) for b in batches] == [32, 32, 32, 4]

    def test_concatenation_preserves_order(self):
        rs = records(*[f"l{i}" for i in range(100)])
        batches = split_batches(rs, 7)
        assert [r for b in batches for r in b] == rs

    def test_full_scale_batch_count(self):
        count = len(split_batches(records(*[f"l{i}" for i in range(94_472)]), 32))
        assert count == math.ceil(94_472 / 32) == 2_953

    def test_empty_input(self):
        assert split_batches([], 32) == []

    def test_bad_size(self):
        with pytest.raises(ConfigError):
            split_batches(records("a"), 0)


class TestBuildPrompt:
    def test_contains_fewshot_and_batch_lines(self):
        config = GenerationConfig()
        batch = [LemmaRecord("limitar", PosTag.from_label("Verbo"))]
        prompt = build_prompt(batch, config)
        assert "limitar — Verbo" in prompt
        for lemma, label, definition, _ in config.fewshot_examples:
            assert f"{lemma}: {label}: {definition}" in prompt

    def test_deterministic(self):
        config = GenerationConfig()
        batch = records("uno", "dos")
        assert build_prompt(batch, config) == build_prompt(batch, config)

    def test_batch_lines_in_input_order(self):
        lemmas = [f"lema{i:02d}" for i in range(32)]
        random.Random(5).shuffle(lemmas)
        prompt = build_prompt(records(*lemmas), GenerationConfig())
        positions = [prompt.rindex(f"\n{lemma}") for lemma in lemmas]
        assert positions == sorted(positions)

    def test_missing_placeholder_is_config_error(self):
        with pytest.raises(ConfigError):
            GenerationConfig(prompt_template="sin marcador")

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            build_prompt([], GenerationConfig())


class TestDetectRefusal:
    @pytest.mark.parametrize(
        "text",
        [
            "Desconocido, no tengo información para generar una definición o ejemplo.",
            "Parece ser un error tipográfico o una palabra inexistente en español.",
            "Término sin definición conocida, posiblemente un error",
            "",
            "   ",
        ],
    )
    def test_refusals(self, text):
        assert detect_refusal(text)

    @pytest.mark.parametrize(
        "text",
        [
            "Acción y efecto de limitar o limitarse.",
            "Poner límites o fronteras a algo.",
            "Persona de origen desconocido.",
        ],
    )
    def test_definitions_pass(self, text):
        assert not detect_refusal(text)


class TestParseModelResponse:
    def test_happy_path_conserves_batch(self):
        batch = records(*[f"lema{i}" for i in range(32)])
        raw = "\n".join(reply_for(r.lemma) for r in batch)
        entries, failures = parse_model_response(raw, batch)
        assert len(entries) == 32 and failures == []
        assert all(e.senses[0].example for e in entries)

    def test_typo_reply_is_refusal(self):
        batch = records("jugar")
        raw = "jugar: Nombre masculino: Parece ser un error tipográfico o una palabra inexistente en español."
        entries, failures = parse_model_response(raw, batch)
        assert entries == []
        assert failures[0].reason.value == "refusal"

    def test_one_word_pattern_inside_a_definition_is_not_refusal(self):
        entries, failures = parse_model_response(
            "ignoto: Adjetivo: No conocido ni descubierto; desconocido.", [LemmaRecord("ignoto")]
        )
        assert failures == []
        assert entries[0].senses[0].definition == "No conocido ni descubierto; desconocido."

    def test_omitted_lemma_becomes_parse_error(self):
        batch = records("a1", "b2", "c3", "d4", "e5")
        raw = "\n".join(reply_for(r.lemma) for r in batch if r.lemma != "c3")
        entries, failures = parse_model_response(raw, batch)
        assert len(entries) == 4 and len(failures) == 1
        assert failures[0].lemma == "c3" and failures[0].reason.value == "parse_error"

    def test_numbered_continuation_senses(self):
        raw = (
            "banco: Nombre masculino: Asiento largo para varias personas. Ejemplo: Se sentó en el banco.\n"
            "2. Entidad dedicada a operaciones financieras. Ejemplo: El banco abre a las ocho.\n"
            "3. Conjunto de peces.\n"
        )
        entries, failures = parse_model_response(raw, records("banco"))
        assert failures == []
        senses = entries[0].senses
        assert len(senses) == 3
        assert [s.ordinal for s in senses] == [1, 2, 3]
        assert senses[1].definition == "Entidad dedicada a operaciones financieras."
        assert senses[1].example == "El banco abre a las ocho."
        assert senses[2].example is None

    def test_refusal_sense_filtered_but_entry_kept(self):
        raw = (
            "hoja: Nombre femenino: Lámina delgada de papel. Ejemplo: Arrancó una hoja.\n"
            "2. Desconocido, no tengo información.\n"
        )
        entries, failures = parse_model_response(raw, records("hoja"))
        assert failures == []
        assert len(entries[0].senses) == 1

    def test_pos_requested_must_match(self):
        batch = [LemmaRecord("ser", PosTag.from_label("Verbo"))]
        raw = "ser: Nombre masculino: Ente o criatura."
        entries, failures = parse_model_response(raw, batch)
        assert entries == [] and failures[0].reason.value == "parse_error"

    def test_stray_prose_is_ignored(self):
        raw = "Claro, aquí tienes las definiciones.\n" + reply_for("mar", "Nombre masculino", "Masa de agua salada.")
        entries, failures = parse_model_response(raw, records("mar"))
        assert len(entries) == 1 and failures == []


class FlakyProvider:
    """Fails the first N complete() calls retryably, then delegates."""

    def __init__(self, inner, failures: int):
        self.inner = inner
        self.remaining = failures

    def complete(self, request):
        if self.remaining > 0:
            self.remaining -= 1
            raise ProviderError("synthetic transient failure", retryable=True)
        return self.inner.complete(request)


class BrokenProvider:
    def complete(self, request):
        raise ProviderError("permanently down", retryable=True)


def stub_for(*lemmas: str, refuse: tuple[str, ...] = ()) -> StubProvider:
    replies = {}
    for lemma in lemmas:
        if lemma in refuse:
            replies[lemma] = f"{lemma}: Verbo: Término sin definición conocida."
        else:
            replies[lemma] = reply_for(lemma)
    return StubProvider(replies)


class TestRunGeneration:
    def test_conservation_with_refusal(self):
        lemmas = ["uno", "dos", "tres", "cuatro", "cinco"]
        provider = stub_for(*lemmas, refuse=("cuatro",))
        dictionary, failures, stats = run_generation(records(*lemmas), provider, GenerationConfig(batch_size=2))
        assert len(dictionary) == 4 and len(failures) == 1
        assert failures[0].reason.value == "refusal"
        assert stats.batch_count == 3

    def test_retries_recorded(self):
        provider = FlakyProvider(stub_for("solo"), failures=2)
        config = GenerationConfig(batch_size=32, max_retries=3, retry_backoff=0.0)
        dictionary, failures, stats = run_generation(records("solo"), provider, config, sleep=lambda _: None)
        assert len(dictionary) == 1 and failures == []
        assert stats.retries == 2 and stats.requests == 3

    def test_exhausted_retries_become_provider_error_failures(self):
        config = GenerationConfig(batch_size=2, max_retries=1, retry_backoff=0.0)
        dictionary, failures, _ = run_generation(
            records("a", "b", "c"), BrokenProvider(), config, sleep=lambda _: None
        )
        assert len(dictionary) == 0 and len(failures) == 3
        assert {f.reason.value for f in failures} == {"provider_error"}

    def test_assembly_deterministic_across_concurrency(self):
        lemmas = [f"lema{i}" for i in range(25)]
        provider = stub_for(*lemmas, refuse=("lema7", "lema19"))
        outputs = []
        for workers in (1, 4):
            config = GenerationConfig(batch_size=4, max_concurrent_batches=workers)
            dictionary, failures, _ = run_generation(records(*lemmas), provider, config)
            dict_out, fail_out = io.StringIO(), io.StringIO()
            write_dictionary(dictionary, dict_out)
            write_failures(failures, fail_out)
            outputs.append((dict_out.getvalue(), fail_out.getvalue()))
        assert outputs[0] == outputs[1]

    def test_no_refusal_text_in_output_dictionary(self):
        lemmas = [f"l{i}" for i in range(10)]
        provider = stub_for(*lemmas, refuse=("l3", "l8"))
        dictionary, _, _ = run_generation(records(*lemmas), provider, GenerationConfig(batch_size=3))
        for entry in dictionary.entries():
            for sense in entry.senses:
                assert not detect_refusal(sense.definition)

    def test_duplicate_input_records_fail_second(self):
        provider = StubProvider({"gato": reply_for("gato", "Nombre masculino", "Felino doméstico pequeño.")})
        rs = [LemmaRecord("gato", PosTag.from_label("Nombre masculino"))] * 2
        dictionary, failures, _ = run_generation(rs, provider, GenerationConfig(batch_size=1))
        assert len(dictionary) == 1 and len(failures) == 1
        assert failures[0].reason.value == "parse_error"

    def test_randomized_fault_conservation(self):
        rng = random.Random(42)
        lemmas = [f"palabra{i}" for i in range(40)]
        for _ in range(20):
            refuse = tuple(x for x in lemmas if rng.random() < 0.2)
            missing = {x for x in lemmas if rng.random() < 0.1}
            provider = stub_for(*(x for x in lemmas if x not in missing), refuse=refuse)
            config = GenerationConfig(batch_size=rng.choice([1, 3, 8, 32]), retry_backoff=0.0)
            dictionary, failures, _ = run_generation(records(*lemmas), provider, config)
            assert len(dictionary) + len(failures) == len(lemmas)

    def test_audit_writes_one_file_per_batch(self, tmp_path):
        lemmas = [f"l{i}" for i in range(5)]
        provider = stub_for(*lemmas)
        run_generation(records(*lemmas), provider, GenerationConfig(batch_size=2), audit_dir=tmp_path / "audit")
        assert sorted(p.name for p in (tmp_path / "audit").iterdir()) == [
            "batch_0001.txt",
            "batch_0002.txt",
            "batch_0003.txt",
        ]

    def test_reference_run_arithmetic_contract(self):
        # the published run shape: inputs fully accounted for
        assert 77_093 + 17_379 == 94_472


class TestRunStatsTokens:
    def test_token_usage_aggregated(self):
        lemmas = ["uno", "dos", "tres"]
        provider = stub_for(*lemmas)
        _, _, stats = run_generation(records(*lemmas), provider, GenerationConfig(batch_size=1))
        assert stats.prompt_tokens > 0 and stats.completion_tokens > 0


class CuttingProvider(StubProvider):
    """A StubProvider whose reply is cut after the request's max_tokens words, as a chat service does."""

    def __init__(self, replies):
        super().__init__(replies)
        self.batches = []
        self.cut_texts = []

    def complete(self, request):
        self.batches.append(list(request.lemmas))
        response = super().complete(request)
        words = list(re.finditer(r"\S+", response.text))
        if len(words) <= request.max_tokens:
            return response
        text = response.text[: words[request.max_tokens - 1].end()]
        self.cut_texts.append(text)
        return ProviderResponse(text=text, finish_reason="length")


def word_count(text: str) -> int:
    return len(text.split())


class TestTruncatedReplies:
    def run(self, replies, lemmas, max_tokens, batch_size=32):
        provider = CuttingProvider(replies)
        config = GenerationConfig(batch_size=batch_size, max_output_tokens=max_tokens)
        dictionary, failures, stats = run_generation(records(*lemmas), provider, config)
        assert len(dictionary) + len(failures) == len(lemmas)
        assert stats.requests == provider.calls
        return dictionary, failures, provider

    def test_refused_lemma_cut_to_a_definition_is_not_kept(self):
        replies = {"uno": reply_for("uno"), "parco": "parco: Adjetivo: Palabra inexistente en español."}
        dictionary, failures, provider = self.run(replies, ["uno", "parco"], word_count(replies["uno"]) + 3)
        assert provider.cut_texts[0].endswith("\nparco: Adjetivo: Palabra")  # reads as a definition
        assert provider.batches == [["uno", "parco"], ["parco"]]
        assert [entry.lemma for entry in dictionary.entries()] == ["uno"]
        assert [(f.lemma, f.reason) for f in failures] == [("parco", FailureReason.REFUSAL)]

    def test_cut_inside_a_defined_lemmas_senses(self):
        banco = (
            "banco: Nombre masculino: Asiento largo. Ejemplo: Se sentó en el banco.\n"
            "2. Entidad financiera. Ejemplo: Fue al banco.\n"
            "3. Conjunto de peces."
        )
        replies = {"uno": reply_for("uno"), "banco": banco, "dos": reply_for("dos")}
        limit = word_count(replies["uno"]) + word_count(banco) - 2
        dictionary, failures, provider = self.run(replies, ["uno", "banco", "dos"], limit)
        assert provider.cut_texts[0].endswith("\n3. Conjunto")
        assert provider.batches == [["uno", "banco", "dos"], ["banco", "dos"], ["dos"]]
        assert failures == []
        senses = dictionary.get("banco", PosCategory.NOUN).senses
        assert [s.definition for s in senses] == ["Asiento largo.", "Entidad financiera.", "Conjunto de peces."]
        assert {entry.lemma for entry in dictionary.entries()} == {"uno", "banco", "dos"}

    def test_lemma_whose_own_reply_overflows_fails_as_truncated(self):
        long = render_reply_block("largo", "Adjetivo", [("Que tiene " + "mucha " * 30 + "longitud.", None)])
        replies = {"largo": long, "uno": reply_for("uno"), "dos": reply_for("dos")}
        dictionary, failures, provider = self.run(replies, ["largo", "uno", "dos"], 20)
        # nothing answered: split in half; the lone lemma still overflows
        assert provider.batches == [["largo", "uno", "dos"], ["largo"], ["uno", "dos"]]
        assert len(provider.batches) <= 2 * 3 - 1
        assert {entry.lemma for entry in dictionary.entries()} == {"uno", "dos"}
        assert [(f.lemma, f.reason) for f in failures] == [("largo", FailureReason.TRUNCATED)]
        out = io.StringIO()
        write_failures(failures, out)
        assert json.loads(out.getvalue())["reason"] == "truncated"
        assert parse_failures(io.StringIO(out.getvalue())) == failures

    def test_outcomes_match_an_uncut_run(self):
        rng = random.Random(11)
        lemmas = [f"palabra{i}" for i in range(40)]
        for _ in range(20):
            replies = {}
            for lemma in lemmas:
                roll = rng.random()
                if roll < 0.1:
                    continue  # omitted from every reply
                if roll < 0.25:
                    replies[lemma] = f"{lemma}: Verbo: Palabra inexistente en español."
                    continue
                senses = [
                    ("Acción " + "muy " * rng.randint(0, 12) + "concreta.", rng.choice([None, "Lo hizo."]))
                    for _ in range(rng.randint(1, 3))
                ]
                replies[lemma] = render_reply_block(lemma, "Verbo", senses)
            limit = rng.randint(5, 60)
            batch_size = rng.choice([1, 3, 8, 32])
            provider = CuttingProvider(replies)
            config = GenerationConfig(batch_size=batch_size, max_output_tokens=limit)
            dictionary, failures, _ = run_generation(records(*lemmas), provider, config)
            uncut, uncut_failures, _ = run_generation(records(*lemmas), StubProvider(replies), config)

            assert len(dictionary) + len(failures) == len(lemmas)
            assert len(provider.batches) <= sum(2 * len(b) - 1 for b in split_batches(records(*lemmas), batch_size))
            reasons = {f.lemma: f.reason for f in failures}
            uncut_reasons = {f.lemma: f.reason for f in uncut_failures}
            for lemma in lemmas:
                if word_count(replies.get(lemma, "")) > limit:
                    assert reasons[lemma] is FailureReason.TRUNCATED
                else:
                    assert reasons.get(lemma) == uncut_reasons.get(lemma)
                    assert dictionary.get(lemma, PosCategory.VERB) == uncut.get(lemma, PosCategory.VERB)
            out = io.StringIO()
            write_failures(failures, out)
            assert parse_failures(io.StringIO(out.getvalue())) == failures
