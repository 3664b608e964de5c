"""Smoke test of tools/verify_mutants.py: it finds every guarded verifier
predicate.  main() is never called, so no mutant is built or tested."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_verify_mutants_lists_every_predicate():
    spec = importlib.util.spec_from_file_location(
        "verify_mutants", ROOT / "tools" / "verify_mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = (ROOT / tool.PIPELINE).read_text(encoding="utf-8")
    reasons = [reason for reason, _, _ in tool.predicates(source)]
    assert reasons == [
        "dataset-hash", "rank-mismatch", "certificate-inconclusive", "mode-mismatch",
        "power-cap", "alpha-primitive", "n-mismatch", "k-exceeds-pmax",
        "period", "alpha-not-interior", "deep-point-outside-box", "word-mode",
        "deep-point-in-obstacle", "deep-dist2", "power-collision", "bound-value",
    ]
