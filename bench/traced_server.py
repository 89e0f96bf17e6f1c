"""The serving CLI with the benchmark's span wrappers installed.

    python bench/traced_server.py --spans PATH -- <repro.serving.server args>

Installs the wrappers of ``tracing.py`` and then calls
``repro.serving.server.main(argv)``, so a traced server has the same
process layout as an untraced one.  The spans are written to ``PATH`` as
JSONL when the server exits after its drain.
"""

from __future__ import annotations

import argparse
import sys

from tracing import SpanRecorder, install, write_spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True, metavar="PATH")
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    server_args = args.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]

    import repro.serving.server as server

    recorder = SpanRecorder()
    install(recorder, digest=True)
    try:
        return server.main(server_args)
    finally:
        write_spans(args.spans, recorder.spans)


if __name__ == "__main__":
    sys.exit(main())
