"""Run one tangentgp CLI command in this process and report on it.

Usage: python3 child.py --report REPORT.json [--spans SPANS.json] -- CMD ARGS...

The report records the CLOCK_MONOTONIC instant at which ``tangentgp.cli``
finished importing, so the launching process can measure start-up time.
With ``--spans`` the public functions of the geometry, spectral, gp, fields
and io modules are wrapped before the command runs, and one span per call
(name, start, end, parent) is kept in memory and written out at exit.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time

# Per-element helpers: a span per call would cost more than the call itself.
# Their callers (compute_transports and the CSV/VTK/OBJ writers) are traced.
UNTRACED = {"io.fmt_float", "geometry.compute_transport"}
TRACED_MODULES = ("geometry", "spectral", "gp", "fields", "io")


class Tracer:
    """In-memory span recorder: [name, start, end, parent, extra] rows."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.monotonic(), None,
                           self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, extra=None) -> None:
        self.stack.pop()
        row = self.spans[idx]
        row[2] = time.monotonic()
        row[4] = extra

    def wrap(self, fn, name: str, extra_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if extra_of is not None:
                    extra = extra_of(args, kwargs, result)
                return result
            finally:
                self._close(idx, extra)
        return traced


def _objective_value(_args, _kwargs, value):
    return {"value": float(value) if math.isfinite(value) else None}


def _spectrum_record(args, kwargs, spectrum):
    operator = args[0] if args else kwargs["operator"]
    return {"rows": int(operator.matrix.shape[0]), "m": int(spectrum.m),
            "eigenvalues": [float(v) for v in spectrum.eigenvalues]}


def _gram_record(args, kwargs, _result):
    enc = args[0] if args else kwargs["encodings"]
    filt = args[1] if len(args) > 1 else kwargs["filter_values"]
    return {"rows": int(enc.shape[0] * enc.shape[1]), "k": int(filt.shape[0])}


def _predict_record(args, kwargs, _result):
    nodes = args[1] if len(args) > 1 else kwargs["query_nodes"]
    return {"queries": int(len(nodes))}


EXTRAS = {
    "spectral.eigendecompose": _spectrum_record,
    "gp.assemble_gram": _gram_record,
    "gp.predict": _predict_record,
}


def install(tracer: Tracer, cli) -> None:
    """Wrap each public function once and rebind it in every module
    namespace (including the CLI's) that holds the original object."""
    import tangentgp
    modules = {name: getattr(tangentgp, name) for name in TRACED_MODULES}
    namespaces = list(modules.values()) + [cli, tangentgp]
    for mod_name, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            name = f"{mod_name}.{attr}"
            if (not callable(fn) or isinstance(fn, type) or name in UNTRACED
                    or getattr(fn, "__module__", None) != mod.__name__):
                continue
            traced = tracer.wrap(fn, name, EXTRAS.get(name))
            if name == "gp.coordinate_search":
                traced = _count_objective(tracer, traced)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, traced)


def _count_objective(tracer: Tracer, search):
    """Hand coordinate_search an objective that records one span per call."""
    @functools.wraps(search)
    def wrapped(objective, *args, **kwargs):
        counted = tracer.wrap(objective, "gp.objective", _objective_value)
        return search(counted, *args, **kwargs)
    return wrapped


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    report_path = opts[opts.index("--report") + 1]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    import click
    import tangentgp.cli as cli
    report = {"imported_at": time.monotonic(), "exit_code": None}
    tracer = None
    if spans_path:
        tracer = Tracer()
        install(tracer, cli)
        cli_main = tracer.wrap(cli.main.main, "cli.main")
    else:
        cli_main = cli.main.main
    try:
        cli_main(cli_args, prog_name="tangentgp", standalone_mode=False)
        report["exit_code"] = 0
    except click.ClickException as exc:
        exc.show()
        report["exit_code"] = exc.exit_code
    finally:
        if report["exit_code"] is None:
            report["exit_code"] = 1
        if tracer is not None:
            with open(spans_path, "w") as fh:
                json.dump({"spans": tracer.spans}, fh)
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
