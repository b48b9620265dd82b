"""The reports of ``tools/report_hashes.py``'s documents against the digests
committed in ``tools/report_hashes.json``.

The digests are keyed on the environment they were computed in: Python,
numpy and the BLAS numpy links.  In another environment the test is skipped
with a reason that names both, since rounding there may move a digest that
no change to the package moved."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool():
    spec = importlib.util.spec_from_file_location("report_hashes", TOOLS / "report_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_documents_cover_every_experiment_and_match_the_committed_digests():
    tool = _tool()
    docs = tool.documents()
    # read off the section headers: a document the config refuses is hashed
    # as its message, and still names its experiment
    covered = {e for text in docs.values() for e in re.findall(r"^\[(.+)\]$", text, re.M)}
    assert covered == set(tool.EXPERIMENT_IDS)
    committed = json.loads((TOOLS / "report_hashes.json").read_text())
    here = tool.environment()
    if committed["environment"] != here:
        pytest.skip(f"digests committed for {committed['environment']}, this is {here}: "
                    "regenerate with python3 tools/report_hashes.py to compare here")
    want = committed["digests"]
    got = {name: tool.digest(text) for name, text in docs.items()}
    moved = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    assert not moved, f"reports moved: {moved}; regenerate tools/report_hashes.json " \
                      "and say in CHANGES.md why each moved"
