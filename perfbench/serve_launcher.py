"""Run ``pact serve`` with the benchmark's layer spans installed.

    python3 perfbench/serve_launcher.py --spans-out FILE serve [ARGS...]

``src`` must be on ``PYTHONPATH``.  The spans (plus the server process's
kernel telemetry) are written to FILE after the SIGTERM drain, when
``pact serve`` returns.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, pact_argv = argv[1], argv[2:]
    import spans
    from repro.cli import main as pact_main
    from repro.sat.kernel import TELEMETRY

    recorder = spans.Recorder().install()
    try:
        return pact_main(pact_argv)
    finally:
        for key, value in TELEMETRY.snapshot().items():
            recorder.counts[f"telemetry.{key}"] = value
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
