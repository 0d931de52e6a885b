"""Every REP rule proves it fires (bad fixture) and stays quiet (good)."""

from pathlib import Path

import pytest

from repro.devtools.lint import PARSE_ERROR_RULE, run_lint
from repro.devtools.rules import all_rules

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"


def lint(paths, rule=None):
    select = [rule] if rule is not None else None
    return run_lint(paths, all_rules(), select=select)


def messages(findings):
    return "\n".join(f.render() for f in findings)


# --------------------------------------------------------------------- #
# REP001 lock-order
# --------------------------------------------------------------------- #
def test_rep001_fires_on_bad_fixture():
    findings = lint([BAD / "locks.py"], "REP001")
    text = messages(findings)
    assert len(findings) == 3
    assert "lock-order inversion" in text
    assert "expensive call" in text
    assert "self-deadlock" in text


def test_rep001_quiet_on_good_fixture():
    assert lint([GOOD / "locks.py"], "REP001") == []


# --------------------------------------------------------------------- #
# REP002 no-blocking-in-async
# --------------------------------------------------------------------- #
def test_rep002_fires_on_bad_fixture():
    findings = lint([BAD / "serve" / "http" / "handlers.py"], "REP002")
    text = messages(findings)
    assert len(findings) == 4
    assert "time.sleep" in text
    assert "'open'" in text
    assert "result" in text
    assert "service.run" in text


def test_rep002_quiet_on_good_fixture():
    assert lint([GOOD / "serve" / "http" / "handlers.py"], "REP002") == []


def test_rep002_is_scoped_to_serving_packages():
    # The same blocking code outside serve/http|fleet is out of scope.
    findings = lint([BAD / "locks.py"], "REP002")
    assert findings == []


# --------------------------------------------------------------------- #
# REP003 fault-point names
# --------------------------------------------------------------------- #
def test_rep003_fires_on_typoed_points():
    findings = lint([BAD / "faults.py"], "REP003")
    text = messages(findings)
    assert len(findings) == 2
    assert "store.putt" in text
    assert "store.write" in text


def test_rep003_fires_on_hand_listed_cli_help():
    findings = lint([BAD / "cli.py"], "REP003")
    assert any("FAULT_POINTS" in f.message for f in findings)


def test_rep003_quiet_on_good_fixtures():
    assert lint([GOOD / "faults.py"], "REP003") == []
    assert lint([GOOD / "cli.py"], "REP003") == []


# --------------------------------------------------------------------- #
# REP004 metrics naming
# --------------------------------------------------------------------- #
def test_rep004_fires_on_bad_names():
    findings = lint([BAD / "bad_metrics.py"], "REP004")
    text = messages(findings)
    assert len(findings) == 3
    assert "repro_http_requests" in text and "_total" in text
    assert "repro_Bad-Name_seconds" in text
    assert "repro_depth_total" in text


def test_rep004_fires_on_cross_module_duplicate():
    findings = lint(
        [BAD / "dup_a_metrics.py", BAD / "dup_b_metrics.py"], "REP004"
    )
    assert any("multiple modules" in f.message for f in findings)


def test_rep004_quiet_on_good_fixture():
    assert lint([GOOD / "good_metrics.py"], "REP004") == []


# --------------------------------------------------------------------- #
# REP005 json-native
# --------------------------------------------------------------------- #
def test_rep005_fires_on_default_kwarg():
    findings = lint([BAD / "payload.py"], "REP005")
    assert len(findings) == 1
    assert "default=" in findings[0].message


def test_rep005_quiet_on_good_fixture():
    assert lint([GOOD / "payload.py"], "REP005") == []


# --------------------------------------------------------------------- #
# REP006 determinism
# --------------------------------------------------------------------- #
def test_rep006_fires_on_engine_nondeterminism():
    findings = lint([BAD / "core" / "engine.py"], "REP006")
    text = messages(findings)
    assert len(findings) == 4
    assert "unordered set" in text
    assert "random.shuffle" in text
    assert "time.time" in text


def test_rep006_quiet_on_good_fixture():
    assert lint([GOOD / "core" / "engine.py"], "REP006") == []


def test_rep006_is_scoped_to_engine_modules():
    # The same constructs outside core/fd/itemsets are out of scope.
    findings = lint([BAD / "payload.py"], "REP006")
    assert findings == []


# --------------------------------------------------------------------- #
# REP007 broad-except hygiene
# --------------------------------------------------------------------- #
def test_rep007_fires_on_unjustified_excepts():
    findings = lint([BAD / "excepts.py"], "REP007")
    text = messages(findings)
    assert len(findings) == 2
    assert "noqa: BLE001" in text
    assert "bare" in text


def test_rep007_quiet_on_good_fixture():
    assert lint([GOOD / "excepts.py"], "REP007") == []


# --------------------------------------------------------------------- #
# REP008 store dtypes
# --------------------------------------------------------------------- #
def test_rep008_fires_on_disallowed_dtypes():
    findings = lint([BAD / "packing.py"], "REP008")
    text = messages(findings)
    assert len(findings) == 2
    assert "float16" in text
    assert "complex64" in text


def test_rep008_quiet_on_good_fixture():
    assert lint([GOOD / "packing.py"], "REP008") == []


# --------------------------------------------------------------------- #
# REP009 span names
# --------------------------------------------------------------------- #
def test_rep009_fires_on_bad_fixture():
    findings = lint([BAD / "spans.py"], "REP009")
    text = messages(findings)
    assert len(findings) == 3
    assert "inline literal" in text  # valid name, but not the constant
    assert "repro.storr.putt" in text  # unknown name
    assert "SPAN_SHOUTY" in text  # malformed constant value


def test_rep009_quiet_on_good_fixture():
    assert lint([GOOD / "spans.py"], "REP009") == []


def test_rep009_registry_matches_design_doc():
    # The real tree: every instrumentation site plus the DESIGN.md span
    # taxonomy must agree with repro.obs.names.SPAN_NAMES.
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    assert lint([src], "REP009") == []


# --------------------------------------------------------------------- #
# REP010 engine-encoding
# --------------------------------------------------------------------- #
def test_rep010_fires_on_pattern_objects_in_ctane():
    findings = lint([BAD / "core" / "ctane.py"], "REP010")
    text = messages(findings)
    assert len(findings) == 3
    assert "'WILDCARD'" in text
    assert "'pattern_leq'" in text
    assert "'is_wildcard'" in text


def test_rep010_quiet_on_good_fixture():
    assert lint([GOOD / "core" / "ctane.py"], "REP010") == []


def test_rep010_is_scoped_to_the_ctane_module():
    # Other engine modules may use pattern objects at their boundaries.
    assert lint([BAD / "core" / "engine.py"], "REP010") == []


# --------------------------------------------------------------------- #
# framework behaviour
# --------------------------------------------------------------------- #
def test_parse_error_becomes_rep000(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def half(:\n", encoding="utf-8")
    findings = run_lint([broken], all_rules())
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_RULE


def test_good_tree_is_clean_under_all_rules():
    assert lint([GOOD]) == []


def test_bad_tree_fires_every_rule():
    findings = lint([BAD])
    fired = {f.rule for f in findings}
    expected = {f"REP{i:03d}" for i in range(1, 11)}
    assert expected <= fired


def test_ignore_drops_rules():
    findings = run_lint([BAD], all_rules(), ignore=["REP%03d" % i for i in range(1, 11)])
    assert findings == []


@pytest.mark.parametrize("rule_id", [f"REP{i:03d}" for i in range(1, 11)])
def test_each_rule_has_a_failing_fixture(rule_id):
    findings = lint([BAD], rule_id)
    assert findings, f"{rule_id} has no failing fixture"
    assert all(f.rule == rule_id for f in findings)
