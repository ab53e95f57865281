"""The diagnostics registry as a contract: unique coded entries, doc
coverage in docs/ANALYSIS.md, and SARIF round-tripping for every
family including SAC502."""

import json
import re
from pathlib import Path

from repro.sac.diagnostics import (
    CODE_CATALOGUE,
    Diagnostic,
    Severity,
    render_sarif,
)
from repro.sac.errors import SourcePos

DOCS = Path(__file__).resolve().parents[2] / "docs" / "ANALYSIS.md"


class TestCatalogue:
    def test_codes_are_well_formed_and_unique(self):
        seen = set()
        for code in CODE_CATALOGUE:
            assert re.fullmatch(r"SAC\d{3}", code), code
            assert code not in seen
            seen.add(code)

    def test_every_code_carries_a_severity(self):
        for code, (severity, summary) in CODE_CATALOGUE.items():
            assert isinstance(severity, Severity), code
            assert summary.strip(), code

    def test_families_present(self):
        families = {code[:4] for code in CODE_CATALOGUE}
        assert families == {"SAC0", "SAC1", "SAC2", "SAC3", "SAC4",
                            "SAC5"}

    def test_sac5xx_severities(self):
        assert [c for c in CODE_CATALOGUE if c.startswith("SAC5")] \
            == ["SAC502"]
        assert CODE_CATALOGUE["SAC502"][0] is Severity.WARNING


class TestDocDrift:
    """docs/ANALYSIS.md must describe every registered code."""

    def test_every_code_documented(self):
        text = DOCS.read_text()
        missing = [c for c in CODE_CATALOGUE if c not in text]
        assert not missing, f"undocumented codes: {missing}"

    def test_documented_severity_matches_catalogue(self):
        # Catalogue rows look like `| SAC502 | warning | ... |`.
        text = DOCS.read_text()
        for code, (severity, _) in CODE_CATALOGUE.items():
            rows = re.findall(
                rf"^\|\s*{code}\s*\|\s*(\w+)\s*\|", text, re.M)
            for documented in rows:
                assert documented == severity.value, (
                    f"{code}: docs say {documented!r}, catalogue says "
                    f"{severity.value!r}")

    def test_no_phantom_codes_in_docs(self):
        text = DOCS.read_text()
        for code in re.findall(r"SAC\d{3}", text):
            assert code in CODE_CATALOGUE, (
                f"docs mention unregistered code {code}")


def _diag(code, line=3):
    return Diagnostic.make(
        code, CODE_CATALOGUE[code][1],
        SourcePos(line, 7, "x.sac"), function="F")


class TestSarifRoundTrip:
    def test_sac5xx_round_trip(self):
        diags = [_diag("SAC502"), _diag("SAC502", 9)]
        log = json.loads(render_sarif(diags))
        run = log["runs"][0]
        results = run["results"]
        assert [r["ruleId"] for r in results] == ["SAC502", "SAC502"]
        assert [r["level"] for r in results] == ["warning", "warning"]
        rules = {r["id"] for r in
                 run["tool"]["driver"]["rules"]}
        assert rules == {"SAC502"}
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "x.sac"
        assert loc["region"]["startLine"] == 3

    def test_every_code_survives_sarif(self):
        diags = [_diag(code) for code in sorted(CODE_CATALOGUE)]
        log = json.loads(render_sarif(diags))
        results = log["runs"][0]["results"]
        assert sorted(r["ruleId"] for r in results) \
            == sorted(CODE_CATALOGUE)
        for r in results:
            assert r["level"] in ("error", "warning")
