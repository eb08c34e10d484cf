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
