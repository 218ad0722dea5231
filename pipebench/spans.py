"""Outside-in span tracing of the maxentgames layers.

`install` wraps the public functions named in LAYERS at every place the
package binds them: the defining module and every module that pulled the
name in with `from ... import`.  Patching only the defining module would
miss those calls, because the importer holds its own reference.

A span is `[name, start, end, parent, note]`: perf_counter seconds, the
index of the enclosing span in the same pass (-1 at top level), and a
per-call note taken after the span has ended: the rounds argument, the
size of the file read or written (a later call may overwrite the file),
the quantile arguments, the returned JSON text.  `resolve_notes` turns
the last two into comparable values after the timed pass.

Spans live in memory; the parent process writes them out when the run ends.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter


def _arg(index, name):
    def pick(args, kwargs, result):
        return args[index] if len(args) > index else kwargs[name]
    return pick


def _file_size(index, name):
    pick = _arg(index, name)

    def size(args, kwargs, result):
        return os.path.getsize(pick(args, kwargs, result))
    return size


def _call_args(args, kwargs, result):
    return args, kwargs


def _result(args, kwargs, result):
    return result


# layer -> (module that defines the name, function name, note)
LAYERS = {
    "kernels": [("maxentgames.kernels", "simulate_session",
                 _arg(1, "rounds"))],
    "simulate": [("maxentgames.simulate", "run_ensemble", None)],
    "lattice": [("maxentgames.lattice", "tally", None),
                ("maxentgames.lattice", "mean_observation", None)],
    "maxent": [("maxentgames.maxent", "binomial_prediction", None),
               ("maxentgames.maxent", "entropy_report", None)],
    "special": [("maxentgames.special", "chi_square_quantile",
                 _call_args),
                ("maxentgames.special", "student_t_quantile",
                 _call_args)],
    "stats": [("maxentgames.stats", "chi_square_gof", None),
              ("maxentgames.stats", "deviation_report", None)],
    "sessionio": [("maxentgames.sessionio", "analyze_session", None),
                  ("maxentgames.sessionio", "read_session_csv",
                   _file_size(0, "path")),
                  ("maxentgames.sessionio", "write_session_csv",
                   _file_size(1, "path")),
                  ("maxentgames.sessionio", "session_digest", None),
                  ("maxentgames.sessionio", "write_lattice_svg",
                   _file_size(1, "path")),
                  ("maxentgames.sessionio", "summarize_ensemble", None),
                  ("maxentgames.sessionio", "canonical_json", _result)],
}

SPAN_NAMES = [f"{layer}.{name}"
              for layer, entries in LAYERS.items() for _, name, _ in entries]


class Recorder:
    """Collects the spans of one pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            # a recursive call (canonical_json) stays inside its first span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[1] = start
                span[2] = end
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def resolve_notes(self) -> None:
        """Replace deferred notes by what they stand for: JSON text sizes,
        and quantile arguments as comparable strings."""
        for span in self.spans:
            name, note = span[0], span[4]
            if name == "sessionio.canonical_json":
                span[4] = len(note.encode("utf-8"))
            elif name.startswith("special."):
                args, kwargs = note
                span[4] = repr((tuple(args), sorted(kwargs.items())))


def install(recorder: Recorder) -> list[str]:
    """Wrap every binding of every LAYERS function in loaded maxentgames
    modules.  Returns the span names that were found and wrapped."""
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "maxentgames"
                                     or name.startswith("maxentgames."))]
    wrapped = []
    for layer, entries in LAYERS.items():
        for module_name, attr, note in entries:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            name = f"{layer}.{attr}"
            traced = recorder.wrap(name, original, note)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
            wrapped.append(name)
    return wrapped
