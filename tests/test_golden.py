"""The CLI's bytes against tests/golden/manifest.json, which
tests/golden/regen.py writes."""

import json
import platform

import numpy as np
import pytest

from golden import regen


def test_cli_bytes_match_the_golden_manifest():
    manifest = json.loads(regen.MANIFEST.read_text(encoding="utf-8"))
    made_with = (manifest["numpy"], manifest["python"])
    if made_with != (np.__version__, platform.python_version()):
        pytest.skip(f"the digests were made with numpy {made_with[0]} and "
                    f"Python {made_with[1]}; numpy's last bits and argparse's "
                    f"text vary between versions")
    requests = manifest["requests"]
    assert len(requests) >= 150
    assert {r["exit"] for r in requests} >= {0, 2, 3, 4}
    with regen.environment():
        moved = [r["argv"] for r in requests if regen.record(r["argv"]) != r]
    recorded, current = manifest["cpu_dispatch"], regen.cpu_dispatch()
    assert moved == [], "" if recorded == current else (
        f"the digests were made with numpy's CPU dispatch targets {recorded}, and this "
        f"run has {current}; numpy's SIMD kernels can differ in the last bit")
