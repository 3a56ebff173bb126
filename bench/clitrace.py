"""Run the qic command line with spans recorded around qicsim's functions.

    python3 bench/clitrace.py SPANS.jsonl <qic arguments>

Behaves like ``python -m qicsim.cli <qic arguments>`` (same outputs, same
exit code) and writes the spans to SPANS.jsonl on exit.  The first span,
``cli.import``, is the cold import of qicsim.cli in this fresh process.
"""

import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    span = tracer.begin("cli.import")
    import qicsim.cli
    tracer.end(span)
    tracer.install()
    try:
        return qicsim.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
