"""``stonne lint``: static-analysis passes enforcing simulator invariants.

Most of the simulator's guarantees are held at run time — payload and
trace pins, lens on/off differential suites, the reference clock, the
counter-universe property. This package keeps the two checks no
runtime test can stand in for (``tests/oracles/mutants.py`` seeds one
fault of each that only the pass catches), on the AST, so a violation
fails ``make lint``:

- :mod:`repro.analysis.exceptions` (``EXC-*``) — no bare/overbroad
  handlers, simulator errors derive from :mod:`repro.errors`;
- :mod:`repro.analysis.floatorder` (``FLOAT-*``) — no ``sum()`` over a
  set or dict view in the timing/energy packages.

Run with ``stonne lint`` or ``python -m repro.analysis.lint``; suppress
an individual finding with ``# stonne: lint-ok[<RULE-ID>] reason`` (the
reason is mandatory). See ``docs/STATIC_ANALYSIS.md``.
"""

from repro.analysis.core import (
    Finding,
    LintPass,
    Project,
    Rule,
    SourceFile,
    all_passes,
    all_rules,
    register_pass,
)
__all__ = [
    "Finding",
    "LintPass",
    "LintResult",
    "Project",
    "Rule",
    "SourceFile",
    "all_passes",
    "all_rules",
    "register_pass",
    "run_lint",
]


def __getattr__(name):
    # lazy so `python -m repro.analysis.lint` does not import the driver
    # twice (once as repro.analysis.lint, once via this package)
    if name in ("LintResult", "run_lint"):
        from repro.analysis import lint

        return getattr(lint, name)
    raise AttributeError(name)
