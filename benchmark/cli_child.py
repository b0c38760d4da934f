"""Run one `gframes` command under the span tracer and record what it saw.

Usage: python3 benchmark/cli_child.py RECORD_PATH ARGS...

The import of `gframes.cli` is timed first, before the tracer (and so
nothing the tracer needs) is loaded. The command's stdout and exit code
are those of `gframes ARGS...`; RECORD_PATH receives a JSON record with
the import and compute times, the exit code, the per-layer statistics
and any name the tracer failed to restore.
"""

import json
import sys
import time


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import gframes.cli
    import_s = time.perf_counter() - start

    from tracing import Tracer, wrapped_names

    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    start = time.perf_counter()
    try:
        code = gframes.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        compute_s = time.perf_counter() - start
        tracer.uninstall()
    sys.stdout.flush()
    record = {"import_s": import_s, "compute_s": compute_s, "exit_code": code,
              "stats": tracer.stats.to_dict(), "left_wrapped": wrapped_names()}
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
