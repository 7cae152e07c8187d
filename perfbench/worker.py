"""One measured run of the program, in a fresh process.

    python3 perfbench/worker.py SPEC.json

SPEC holds the checkout's ``src`` directory, the wall-clock time the
parent spawned this process, the config file, the lexiforge CLI arguments
and where to write the result. The worker does the program's set-up
(import lexiforge, load the config, build the embedder or provider),
then, unless ``setup_only``, runs the CLI command once: read the inputs,
compute, write every output file. With ``trace`` it records spans around
the program's public functions while doing so.

The result JSON holds ``setup_s`` (process start to ready), ``wall_s`` and
``cpu_s`` (user + system CPU of this process) of the operation, the
process's peak RSS, the CLI exit code and, when traced, the span summary.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """High-water RSS of this process image.

    ``getrusage`` keeps the parent's RSS at fork across exec, so it would
    report the benchmark runner's size; the kernel's VmHWM starts afresh
    with the new image.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    import lexiforge
    from lexiforge import cli, config

    if not Path(lexiforge.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported lexiforge from {lexiforge.__file__}, not from {src}")
    settings = config.load_config(spec["config"])
    argv = spec["argv"]
    if argv[0] == "evaluate":
        config.build_embedder(argv[argv.index("--embedder") + 1], settings.embedding)
    else:
        config.build_provider(settings.provider)
    result = {"setup_s": time.time() - spec["spawned"]}
    if not spec.get("setup_only"):
        tracer = None
        if spec.get("trace"):
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracer import Tracer

            tracer = Tracer(spec["run_id"]).install()
        cpu, started = _cpu(), time.perf_counter()
        code = 0
        with contextlib.redirect_stdout(sys.stderr):
            try:
                cli.main(args=argv, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        result["wall_s"] = time.perf_counter() - started
        result["cpu_s"] = _cpu() - cpu
        result["exit_code"] = code
        if tracer is not None:
            tracer.finish()
            result["trace"] = tracer.summary()
            tracer.write_spans(spec["spans"])
    result["peak_rss_mb"] = _peak_rss_mb()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
