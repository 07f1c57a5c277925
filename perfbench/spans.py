"""Spans around the public functions of monogenica's layers, set from outside.

`Tracer.install` replaces each traced function by a wrapper that records a
span [name, start, end, parent, amount, flag] in memory; `remove` puts the
originals back.  Names bound by `from ... import` live on in the importing
module, so they are wrapped where they are looked up (for example
`pde.eval_explicit` next to `monogenic.eval_explicit`).  `layer_metrics`
turns the spans of one round into self times and counts.
"""

from __future__ import annotations

import os
import warnings
from collections import defaultdict
from time import perf_counter

import numpy as np

# (metric, unit); every value is per round of the workload's operations.
LAYER_METRICS = (
    ("algebra.validate_s", "s/round"),
    ("algebra.validate_calls", "count/round"),
    ("algebra.multiply_s", "s/round"),
    ("algebra.multiply_calls", "count/round"),
    ("resolvent.coeffs_s", "s/round"),
    ("resolvent.coeffs_calls", "count/round"),
    ("resolvent.assemble_s", "s/round"),
    ("resolvent.assemble_nodes", "count/round"),
    ("holo.eval_s", "s/round"),
    ("holo.eval_calls", "count/round"),
    ("holo.eval_values", "count/round"),
    ("holo.quad_s", "s/round"),
    ("holo.quad_calls", "count/round"),
    ("holo.quad_nodes", "count/round"),
    ("holo.quad_unconverged", "count/round"),
    ("monogenic.explicit_s", "s/round"),
    ("monogenic.explicit_calls", "count/round"),
    ("monogenic.gateaux_s", "s/round"),
    ("monogenic.gateaux_calls", "count/round"),
    ("monogenic.cr_s", "s/round"),
    ("pde.residual_s", "s/round"),
    ("pde.stencil_evals", "count/round"),
    ("pde.identity_s", "s/round"),
    ("pde.scan_s", "s/round"),
    ("cli.build_s", "s/round"),
    ("cli.command_s", "s/round"),
    ("cli.emit_s", "s/round"),
    ("cli.csv_bytes", "bytes/round"),
)

UNCONVERGED = "did not stabilize"


class Tracer:
    """Wraps monogenica's layer functions and records their spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, amount=None):
        """fn inside a span; amount(args) gives the span's work count."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   amount(args) if amount else 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def current(self) -> list:
        return self.spans[self._stack[-1]]

    def patch(self, owner, attr: str, name: str, amount=None, inner=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        fn = inner(original) if inner else original
        setattr(owner, attr, self.wrap(name, fn, amount))

    def install(self) -> None:
        from monogenica import algebra, cli, holo, monogenic, pde, resolvent

        p = self.patch
        p(algebra, "validate_algebra", "algebra.validate")
        p(cli, "validate_algebra", "algebra.validate")
        p(algebra.AlgebraSpec, "multiply", "algebra.multiply")
        for fn in ("t_coeffs", "b_coeffs", "q_table"):
            p(resolvent, fn, "resolvent.coeffs")
        p(resolvent, "assemble_closed", "resolvent.assemble", lambda a: np.size(a[3]))
        p(holo.HoloFn, "eval", "holo.eval", lambda a: np.size(a[2]))
        for owner in (holo, monogenic):
            p(owner, "contour_integrate", "holo.quad", inner=self._counting_quad)
        for owner in (monogenic, pde):
            p(owner, "eval_explicit", "monogenic.explicit")
            p(owner, "gateaux_derivative", "monogenic.gateaux")
        p(monogenic, "eval_integral", "monogenic.gateaux")
        p(monogenic, "cr_residual", "monogenic.cr")
        p(pde, "pde_residual", "pde.residual")
        p(pde, "operator_identity_check", "pde.identity")
        p(pde, "p_nonvanishing_scan", "pde.scan")
        for fn in ("load_job", "build_spec", "build_pde"):
            p(cli, fn, "cli.build")
        for fn in ("cmd_validate", "cmd_eval", "cmd_check"):
            p(cli, fn, "cli.command")
        p(cli, "cmd_grid", "cli.grid", inner=self._sized_grid)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _counting_quad(self, contour_integrate):
        """Count integrand nodes and non-converged quadratures.

        The integrand is monogenic's code (the R^p products), so it gets a
        span of its own and its self time counts as monogenic.gateaux_s.
        """

        def quad(g, contour, *args, **kwargs):
            nodes = 0

            def counted(t):
                nonlocal nodes
                nodes += np.size(t)
                return g(t)

            integrand = self.wrap("monogenic.integrand", counted)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                value = contour_integrate(integrand, contour, *args, **kwargs)
            rec = self.current()
            rec[4] = nodes
            rec[5] = int(any(UNCONVERGED in str(w.message) for w in caught))
            return value

        return quad

    def _sized_grid(self, cmd_grid):
        """Record the bytes of the CSV the grid command wrote."""

        def grid(args):
            code = cmd_grid(args)
            if args.out and os.path.exists(args.out):
                self.current()[4] = os.path.getsize(args.out)
            return code

        return grid

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts of one round of spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    amount = defaultdict(int)
    flags = defaultdict(int)
    stencil = 0
    for i, (name, start, end, parent, amt, flag) in enumerate(spans):
        self_s[name] += end - start - child_time[i]
        incl_s[name] += end - start
        calls[name] += 1
        amount[name] += amt
        flags[name] += flag
        if name == "monogenic.explicit" and parent >= 0 and spans[parent][0] == "pde.residual":
            stencil += 1
    return {
        "algebra.validate_s": self_s["algebra.validate"],
        "algebra.validate_calls": calls["algebra.validate"],
        "algebra.multiply_s": self_s["algebra.multiply"],
        "algebra.multiply_calls": calls["algebra.multiply"],
        "resolvent.coeffs_s": self_s["resolvent.coeffs"],
        "resolvent.coeffs_calls": calls["resolvent.coeffs"],
        "resolvent.assemble_s": self_s["resolvent.assemble"],
        "resolvent.assemble_nodes": amount["resolvent.assemble"],
        "holo.eval_s": self_s["holo.eval"],
        "holo.eval_calls": calls["holo.eval"],
        "holo.eval_values": amount["holo.eval"],
        "holo.quad_s": self_s["holo.quad"],
        "holo.quad_calls": calls["holo.quad"],
        "holo.quad_nodes": amount["holo.quad"],
        "holo.quad_unconverged": flags["holo.quad"],
        "monogenic.explicit_s": self_s["monogenic.explicit"],
        "monogenic.explicit_calls": calls["monogenic.explicit"],
        "monogenic.gateaux_s": self_s["monogenic.gateaux"] + self_s["monogenic.integrand"],
        "monogenic.gateaux_calls": calls["monogenic.gateaux"],
        "monogenic.cr_s": self_s["monogenic.cr"],
        "pde.residual_s": self_s["pde.residual"],
        "pde.stencil_evals": stencil,
        "pde.identity_s": self_s["pde.identity"],
        "pde.scan_s": self_s["pde.scan"],
        "cli.build_s": self_s["cli.build"],
        "cli.command_s": incl_s["cli.command"] + incl_s["cli.grid"],
        "cli.emit_s": self_s["cli.grid"],
        "cli.csv_bytes": amount["cli.grid"],
    }
