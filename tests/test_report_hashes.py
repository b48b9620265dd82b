"""Smoke test of ``tools/report_hashes.py``, the digest set that byte-identity
claims are checked against."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_hashes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("report_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_documents_cover_every_experiment_and_hash_the_same_twice():
    tool = _tool()
    docs = tool.documents()
    # read off the section headers: a document the config refuses is hashed
    # as its message, and still names its experiment
    covered = {e for text in docs.values() for e in re.findall(r"^\[(.+)\]$", text, re.M)}
    assert covered == set(tool.EXPERIMENT_IDS)
    first = {name: tool.digest(text) for name, text in docs.items()}
    assert first == {name: tool.digest(text) for name, text in docs.items()}
