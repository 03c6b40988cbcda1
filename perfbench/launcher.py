"""Traced server: the CLI's ``serve`` command with the layer wrappers installed.

    python3 perfbench/launcher.py SUMMARY.json serve ARTIFACT --transport async --port 0

Runs ``repro.cli.main`` with the given arguments, so the server is built
with the CLI defaults.  Stop it with SIGINT or SIGTERM; it then writes
per-layer totals to ``SUMMARY.json`` and every span to
``SUMMARY.spans.jsonl.gz``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    summary_path = Path(argv[0])
    # SIGTERM stops the server like Ctrl-C, so the summary is still written.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    recorder = tracing.Recorder()
    recorder.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        spans = recorder.closed()
        summary = {
            "totals": tracing.layer_totals(spans),
            "update_handle_s": [span[2] - span[1] for span in spans
                                if span[0] == "service.handle" and span[7] == "/update"],
        }
        recorder.dump(summary_path.with_name(summary_path.stem + ".spans.jsonl.gz"))
        tmp = summary_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(summary), encoding="utf-8")
        os.replace(tmp, summary_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
