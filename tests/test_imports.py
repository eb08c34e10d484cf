"""The library's runtime dependency is numpy alone, and the construction
layer (qcore, codes, eth) does not import the simulation layer."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import etlab

# the etlab modules each construction-layer module may import
CONSTRUCTION_LAYER = {"qcore": set(), "codes": {"qcore"}, "eth": {"qcore", "codes"}}


def etlab_imports(module: str) -> set[str]:
    """The etlab modules that ``etlab/<module>.py`` imports, read from its source."""
    tree = ast.parse(Path(etlab.__file__).with_name(f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            full = ".".join(filter(None, ("etlab" if node.level else None, node.module)))
            if full == "etlab":  # from . import codes
                found.update(a.name for a in node.names)
            elif full.startswith("etlab."):
                found.add(full.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                a.name.removeprefix("etlab.") for a in node.names if a.name.split(".")[0] == "etlab"
            )
    return found


@pytest.mark.parametrize(
    "module, allowed", CONSTRUCTION_LAYER.items(), ids=list(CONSTRUCTION_LAYER)
)
def test_construction_layer_imports(module, allowed):
    # static: etlab/__init__ imports every module, so what a fresh
    # interpreter has loaded cannot show which module imported which
    assert etlab_imports(module) <= allowed


def test_library_imports_no_scipy():
    # a fresh interpreter, so modules imported by other tests do not count
    code = (
        "import json, sys; import etlab, etlab.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []


def test_library_imports_no_network_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client and email: about
    # 16 ms in every process that imports the CLI, each sweep worker included
    code = (
        "import json, sys; import etlab, etlab.cli; "
        "print(json.dumps(sorted(m for m in ('urllib.request', 'http.client') if m in sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []


def test_lindblad_sweeps_import_no_numpy_random(tmp_path):
    # numpy 2 loads numpy.random (with secrets and hmac) on first use, 10-16
    # ms; a Lindblad sweep derives no seed and draws no random number, so it
    # never pays that, while a Monte Carlo sweep must load it to run at all
    code = (
        "import json, sys; import etlab, etlab.cli; "
        "from etlab import cli, experiments; "
        f"assert cli.main(['sweep', 'fig1a', '--out', {str(tmp_path)!r}]) == 0; "
        "experiments.fig1b_sweep([0.05], method='lindblad'); "
        "loaded = ['numpy.random' in sys.modules]; "
        "experiments.fig1a_sweep([0.05], method='mc', n_traj=20); "
        "loaded.append('numpy.random' in sys.modules); "
        "print(json.dumps(loaded))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out.splitlines()[-1]) == [False, True]
    assert (tmp_path / "fig1a-lindblad.csv").is_file()
