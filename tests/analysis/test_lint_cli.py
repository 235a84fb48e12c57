"""End-to-end tests: the shipped tree is clean, seeded violations are
caught, and both entry points report correctly."""

import json
import os
import shutil

import pytest

from repro.analysis import lint_tree
from repro.analysis.cli import main as analysis_main
from repro.analysis.runner import package_root
from repro.cli import main as repro_main

#: One representative violation per rule family, as a snippet appended to
#: a copy of a real core module.  Each must be caught by ``repro lint``.
SEEDED_VIOLATIONS = {
    "CLK001": "import time\n_T0 = time.time()\n",
    "RNG001": "import numpy as _np_v\n_R = _np_v.random.rand(3)\n",
    "RNG002": "import random as _rand_v\n_C = _rand_v.random()\n",
    "RNG003": "import numpy as _np_u\n_G = _np_u.random.default_rng()\n",
    "DTY001": (
        "import numpy as _np_d\n"
        "from .distance import squared_distances as _sq\n"
        "def _bad(q, p):\n"
        "    return _sq(q.astype(_np_d.float32), p)\n"
    ),
    "DTY002": (
        "import numpy as _np_a\n"
        "def undocumented_array() -> _np_a.ndarray:\n"
        "    return _np_a.zeros(3)\n"
    ),
    "LAY001": "from ..experiments import config as _cfg\n",
}


class TestShippedTreeIsClean:
    def test_smoke_lint_tree(self, shipped_lint):
        assert shipped_lint.ok, "\n".join(d.format() for d in shipped_lint)
        assert shipped_lint.checked_files > 50

    def test_smoke_repro_lint_exit_zero(self, capsys):
        assert repro_main(["lint"]) == 0
        assert "no violations" in capsys.readouterr().err

    def test_smoke_module_entry_point(self, capsys):
        assert analysis_main([]) == 0


class TestSeededViolationsAreCaught:
    @pytest.fixture()
    def tree_copy(self, tmp_path):
        """A private copy of the real package tree we can corrupt freely
        (the shipped tree itself is never touched)."""
        target = str(tmp_path / "repro")
        shutil.copytree(package_root(), target)
        return target

    @pytest.mark.parametrize("rule,snippet", sorted(SEEDED_VIOLATIONS.items()))
    def test_seeded_core_violation_caught(self, tree_copy, rule, snippet):
        victim = os.path.join(tree_copy, "core", "search.py")
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write("\n\n" + snippet)
        result = lint_tree(tree_copy)
        flagged = [d for d in result if d.rule == rule]
        assert flagged, f"seeded {rule} violation was not caught"
        assert all(d.path == "core/search.py" for d in flagged)

    def test_seeding_all_violations_fails_cli_with_locations(
        self, tree_copy, capsys
    ):
        victim = os.path.join(tree_copy, "core", "search.py")
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write("\n\n" + "".join(SEEDED_VIOLATIONS.values()))
        assert repro_main(["lint", tree_copy]) == 1
        out = capsys.readouterr().out
        # file:line diagnostics, one per seeded family.
        for rule in SEEDED_VIOLATIONS:
            assert rule in out
        assert "core/search.py:" in out


class TestNewModulesAreCovered:
    """The pruned-scan additions live in simulated layers: the chunk cache
    (simio) and the router (core) must be inside the lint walk, subject to
    the wall-clock and layering contracts like the modules around them."""

    @pytest.fixture()
    def tree_copy(self, tmp_path):
        target = str(tmp_path / "repro")
        shutil.copytree(package_root(), target)
        return target

    def test_new_modules_are_walked(self, shipped_lint):
        assert shipped_lint.ok
        walked = {
            os.path.join(root, name)
            for root, _, names in os.walk(package_root())
            for name in names
        }
        assert any(p.endswith("simio/chunk_cache.py") for p in walked)
        assert any(p.endswith("core/routing.py") for p in walked)

    def test_wall_clock_read_in_chunk_cache_caught(self, tree_copy):
        victim = os.path.join(tree_copy, "simio", "chunk_cache.py")
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write("\n\nimport time\n_T0 = time.time()\n")
        result = lint_tree(tree_copy)
        flagged = [d for d in result if d.rule == "CLK001"]
        assert flagged
        assert all(d.path == "simio/chunk_cache.py" for d in flagged)

    def test_upward_import_in_chunk_cache_caught(self, tree_copy):
        victim = os.path.join(tree_copy, "simio", "chunk_cache.py")
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write("\n\nfrom ..core import search as _s\n")
        result = lint_tree(tree_copy)
        assert any(
            d.rule == "LAY001" and d.path == "simio/chunk_cache.py"
            for d in result
        )

    def test_wall_clock_read_in_router_caught(self, tree_copy):
        victim = os.path.join(tree_copy, "core", "routing.py")
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write("\n\nimport time\n_T0 = time.time()\n")
        result = lint_tree(tree_copy)
        assert any(
            d.rule == "CLK001" and d.path == "core/routing.py" for d in result
        )


class TestCliOptions:
    def test_json_report(self, tmp_path, capsys):
        report_path = str(tmp_path / "lint.json")
        assert repro_main(["lint", "--format", "json", "--output", report_path]) == 0
        with open(report_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["violations"] == 0
        assert payload["checked_files"] > 50
        assert sorted(payload["rules"]) == payload["rules"]

    def test_rule_selection(self, capsys):
        assert repro_main(["lint", "--rules", "CLK001,LAY001"]) == 0
        assert repro_main(["lint", "--rules", "BOGUS9"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("CLK001", "RNG001", "RNG002", "RNG003", "DTY001", "DTY002", "LAY001"):
            assert rule in out

    def test_missing_directory(self, capsys):
        assert repro_main(["lint", "/nonexistent/pkg"]) == 2
        assert "not a directory" in capsys.readouterr().err
