"""Run one relaxcert command in this process, as the console script would.

Usage: python3 bench/cli_child.py [--trace-out FILE] <relaxcert arguments>

With --trace-out, the library is traced and the totals and spans are
written to FILE as JSON, with the time the import of relaxcert took.
The exit code is the command's.
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main() -> int:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    start = time.perf_counter()
    import relaxcert.cli
    import_s = time.perf_counter() - start
    if trace_out is None:
        return relaxcert.cli.run(argv)
    import tracing
    tracer = tracing.Tracer()
    tracer.import_s.append(import_s)
    tracing.install(tracer)
    code = tracer.call(f"cli.{argv[0].replace('-', '_')}", relaxcert.cli.run, argv)
    trace_out.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
