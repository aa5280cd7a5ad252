"""The STONNE User Interface (paper Fig. 2a, Input Module).

A command-line tool that loads layer and tile parameters onto a selected
simulator instance and runs it with random tensors — "allowing for faster
executions, facilitating rapid prototyping and debugging" — plus
full-model and experiment subcommands.
"""

__all__ = ["main"]


def __getattr__(name):
    # lazy so `python -m repro.ui.cli` does not find the module already
    # imported by its own package (runpy warns about that)
    if name == "main":
        from repro.ui.cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
