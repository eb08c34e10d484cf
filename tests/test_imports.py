"""The library's runtime dependency is numpy alone."""

import json
import subprocess
import sys


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
