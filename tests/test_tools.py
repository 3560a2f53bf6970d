"""Smoke test of the timing tools in tools/: they wrap mehdg functions by
attribute name and step perfbench's op stream, so a renamed or deleted
function would otherwise break them without any test noticing."""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tools(monkeypatch):
    """The tools/ modules, imported with `mehdg` out of sys.modules (the
    tools load their own copies of the package under private names and
    refuse to run next to an imported `mehdg`); every module they import is
    dropped again afterwards."""
    for key in [k for k in sys.modules if k == "mehdg" or k.startswith("mehdg.")]:
        monkeypatch.delitem(sys.modules, key)
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    before = set(sys.modules)
    yield importlib.import_module("ab_interleave"), importlib.import_module("phase_share")
    for key in set(sys.modules) - before:
        del sys.modules[key]


def test_ab_interleave_and_phase_share_run_on_this_checkout(tools, capsys):
    ab_interleave, phase_share = tools
    root = str(ROOT)
    assert ab_interleave.main([root, root, "--workload", "hdg-mb", "--seed", "1",
                               "--blocks", "2", "--ops-per-block", "1"]) == 0
    ab = json.loads(capsys.readouterr().out)
    assert ab["agree"] and ab["passed"] == {"parent": 2, "change": 2}
    assert ab["digest_mismatches"] == 0

    assert phase_share.main([root, "--workload", "hdg-mb", "--seed", "1", "--ops", "2"]) == 0
    share = json.loads(capsys.readouterr().out)
    assert share["passed"] == [2]
    assert sorted(share["phases"]) == sorted(attr for _, attr in phase_share.PHASES)
    for module, attr in phase_share.PHASES:
        assert callable(getattr(sys.modules[f"_ab_phase_mehdg.{module}"], attr))


def test_phase_share_alternates_two_checkouts(tools, capsys, monkeypatch):
    """The two-root mode steps both checkouts' op streams in alternating
    blocks and times every phase on each side with that side's own
    wrappers.  Blocks of one op make the 2 ops two blocks, so that both
    orders of the sides run."""
    _, phase_share = tools
    monkeypatch.setattr(phase_share, "OPS_PER_BLOCK", 1)
    root = str(ROOT)
    assert phase_share.main([root, root, "--workload", "macro-mf", "--seed", "1",
                             "--ops", "2"]) == 0
    share = json.loads(capsys.readouterr().out)
    assert sorted(share["sides"]) == ["change", "parent"]
    for side in share["sides"].values():
        assert side["passed"] == [2]
        assert sorted(side["phases"]) == sorted(attr for _, attr in phase_share.PHASES)
        assert side["phases"]["_apply_cab"]["calls_per_op"] > 0
        assert side["phases"]["gmres"]["calls_per_op"] == 1
    assert share["op_cpu_ratio"] > 0
    for tag in ("parent", "change"):
        for module, attr in phase_share.PHASES:
            assert callable(getattr(sys.modules[f"_ab_{tag}_mehdg.{module}"], attr))
