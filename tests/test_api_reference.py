"""``docs/api_reference.md`` is generated from every package's
``__all__`` by ``tools/gen_api_docs.py``; this keeps the committed file
from going stale when a public surface changes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_committed_api_reference_matches_the_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", ROOT / "tools" / "gen_api_docs.py")
    gen_api_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_api_docs)
    committed = (ROOT / "docs" / "api_reference.md").read_text()
    assert committed == gen_api_docs.render(), (
        "docs/api_reference.md is stale: run python tools/gen_api_docs.py")
