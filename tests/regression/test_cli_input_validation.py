"""Text typed at the CLI ends in ``error: ...`` and exit 1, not a traceback.

Four inputs used to leak whatever the parsing underneath raised:
``--tile a,b`` and ``--sizes a,b`` died in ``int()`` (bare
``ValueError``), a counter file with a non-numeric count or a line with
no ``=`` died in :func:`~repro.engine.stats.parse_counter_file` (bare
``ValueError``), and ``mkconfig`` into a directory that does not exist
surfaced ``FileNotFoundError`` from :func:`~repro.config.save_config`.
Each is now a :class:`~repro.errors.StonneError` naming the offending
value or path, which ``main`` prints as ``error: ...``.

``python -m repro.ui.cli`` also used to warn on every invocation
(``repro.ui`` imported ``cli`` eagerly, so runpy found the module in
``sys.modules`` before executing it).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import save_config, tpu_like
from repro.engine.stats import parse_counter_file
from repro.errors import ConfigurationError
from repro.ui.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"


def _rejected(argv, capsys, *named):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: "), err
    assert "Traceback" not in err
    for text in named:
        assert text in err, err


def test_conv_tile_with_non_integers(capsys):
    _rejected(["conv", "--tile", "a,b", "--no-registry"], capsys,
              "--tile", "'a,b'")


def test_sweep_sizes_with_non_integers(capsys):
    _rejected(["sweep", "--sizes", "a,b"], capsys, "--sizes", "'a,b'")


@pytest.mark.parametrize("line,named", [
    ("gb.reads = x", "gb.reads = x"),
    ("gb.reads", "gb.reads"),
    ("gb.reads = -3", "gb.reads = -3"),
])
def test_energy_with_a_malformed_counter_line(tmp_path, capsys, line, named):
    path = tmp_path / "counters.txt"
    path.write_text(f"# header\nmn.multiplications = 4\n{line}\n",
                    encoding="utf-8")
    _rejected(["energy", str(path)], capsys, "line 3", named)
    with pytest.raises(ConfigurationError, match="line 3"):
        parse_counter_file(path.read_text(encoding="utf-8"))


def test_mkconfig_into_a_missing_directory(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "dir" / "x.cfg"
    _rejected(["mkconfig", str(path)], capsys, str(path))
    with pytest.raises(ConfigurationError, match="cannot write"):
        save_config(tpu_like(num_pes=16), path)


def test_module_invocation_raises_no_runtime_warning():
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else [])
    ))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.ui.cli", "--version"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("stonne ")
