"""Run one slrep CLI command in this process with a span around every call
into a layer's public functions.

    python3 perfbench/trace_child.py SPANS_JSON slrep-arguments...

The layers are the slrep modules below.  Each public function (and each
public method of a public class) defined in a layer is replaced, at every
slrep module binding that names it, by a wrapper that records a span:
name, parent span, start, end, whether it raised, and a work size for the
functions in SIZES.  `slrep.cli.main` is wrapped as the `cli.main` span.
Spans stay in memory until the command ends and are then written to
SPANS_JSON together with the time `import slrep.cli` took.  Standard
output, standard error and the exit status are those of the command.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("census", "exact_count", "boltzmann", "limits", "stats", "verify")

# work sizes recorded on a span from the wrapped call's result
SIZES = {
    "census.enumerate_irreps": lambda census: census.num_weights,
    "verify.weyl_lower_bound_check": lambda report: len(report.thetas),
}


class Tracer:
    """Span list plus the stack of open spans."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, raised, size]
        self._open = []

    def wrap(self, name, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1,
                    time.perf_counter(), 0.0, False, 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if size is not None:
                span[5] = size(result)
            return result
        return traced

    def install(self):
        """Wrap every layer's public functions at every slrep binding."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"slrep.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != "slrep" and not name.startswith("slrep."):
                continue
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    setattr(module, attr, wrapper)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import slrep.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    cli_main = tracer.wrap("cli.main", slrep.cli.main)
    try:
        return cli_main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
