"""One benchmark pass in a fresh interpreter.

Usage: python3 -I pipebench/child.py '<spec json>'

The spec names the package source directory (`src`), the CLI arguments
(`argv`, or null for a probe that only imports and reports the
environment) and whether to trace.  The pass times the import of
maxentgames and maxentgames.cli (set-up), then one `cli.main(argv)` call
with stdout captured, and prints one JSON line: timings, exit code, the
sha256 of what the CLI printed, peak RSS, and the spans when traced.
Output files are hashed by the parent after this process has ended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    start = perf_counter()
    import maxentgames
    import maxentgames.cli
    setup_s = perf_counter() - start
    result = {"setup_s": setup_s, "backend": maxentgames.BACKEND,
              "module": maxentgames.__file__}

    if spec["argv"] is None:
        try:
            import maxentgames._fastcore  # noqa: F401
            result["fastcore"] = True
        except ImportError:
            result["fastcore"] = False
        print(json.dumps(result))
        return

    recorder = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans
        recorder = spans.Recorder()
        result["wrapped"] = spans.install(recorder)

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        begin = perf_counter()
        rc = maxentgames.cli.main(spec["argv"])
        end = perf_counter()
    result.update(
        rc=rc, wall_s=end - begin,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        stdout_sha256=hashlib.sha256(
            captured.getvalue().encode("utf-8")).hexdigest())
    if recorder is not None:
        recorder.resolve_notes()
        result["spans"] = recorder.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
