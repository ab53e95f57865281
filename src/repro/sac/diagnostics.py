"""Shared diagnostic model for all SAC static checks.

Every front-end and analysis finding is a :class:`Diagnostic` with a
stable error code, a severity, and (wherever the parser recorded one) a
:class:`~repro.sac.errors.SourcePos`.  Code families:

* ``SAC0xx`` — front-end semantic errors (:mod:`repro.sac.typecheck`),
* ``SAC1xx`` — shape analysis (:mod:`repro.sac.analysis.shapes`),
* ``SAC2xx`` — WITH-loop partition analysis
  (:mod:`repro.sac.analysis.partition`),
* ``SAC3xx`` — parallel-execution race analysis
  (:mod:`repro.sac.analysis.races`),
* ``SAC4xx`` — lints (:mod:`repro.sac.analysis.lint`),
* ``SAC502`` — with-loop folding's refusals, the verdict of
  :func:`repro.sac.optim.wlfold.refusals` (issued by
  :mod:`repro.sac.analysis.driver`).

Three emitters render a diagnostic list: plain text (one finding per
line, ``file:line:col: severity: CODE message``), JSON, and SARIF 2.1.0
for code-scanning UIs.

This module deliberately has no imports from the rest of the front end
except :mod:`repro.sac.errors`, so both :mod:`repro.sac.typecheck` and
:mod:`repro.sac.analysis` can build on it without cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .errors import SourcePos

__all__ = [
    "Severity",
    "Diagnostic",
    "CODE_CATALOGUE",
    "render_text",
    "render_json",
    "render_sarif",
    "has_errors",
]


class Severity(Enum):
    """Finding severity, ordered: warning < error."""

    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"warning": 1, "error": 2}[self.value]

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank

    def __gt__(self, other: "Severity") -> bool:
        return self.rank > other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank


#: code -> (default severity, one-line rule description).
CODE_CATALOGUE: dict[str, tuple[Severity, str]] = {
    # -- SAC0xx: front-end semantics ------------------------------------
    "SAC001": (Severity.ERROR, "syntax error"),
    "SAC002": (Severity.ERROR, "reference to an undefined variable"),
    "SAC003": (Severity.ERROR, "call to an undefined function"),
    "SAC004": (Severity.ERROR, "no overload accepts this argument count"),
    "SAC005": (Severity.ERROR, "duplicate parameter name"),
    "SAC006": (Severity.ERROR, "duplicate function definition"),
    "SAC007": (Severity.ERROR, "non-void function may finish without return"),
    "SAC008": (Severity.ERROR, "'.' bound outside a genarray/modarray frame"),
    "SAC009": (Severity.ERROR, "fold names an undefined function"),
    "SAC010": (Severity.ERROR, "unknown optimization pass name"),
    # -- SAC1xx: shapes --------------------------------------------------
    "SAC101": (Severity.ERROR, "elementwise operation on mismatched shapes"),
    "SAC102": (Severity.ERROR,
               "array access provably escapes the frame (halo) bounds"),
    "SAC103": (Severity.ERROR, "selection index rank exceeds array rank"),
    "SAC104": (Severity.ERROR,
               "generator rank exceeds the frame rank"),
    # -- SAC2xx: partitions ----------------------------------------------
    "SAC201": (Severity.ERROR,
               "generator blocks overlap (width exceeds step)"),
    "SAC202": (Severity.WARNING,
               "genarray generator does not cover the index space"),
    "SAC203": (Severity.ERROR,
               "generator range escapes the frame index space"),
    "SAC204": (Severity.WARNING, "generator range is provably empty"),
    "SAC205": (Severity.ERROR, "generator bounds have different lengths"),
    # -- SAC3xx: races ---------------------------------------------------
    "SAC301": (Severity.ERROR,
               "overlapping writes: WITH-loop is not SPMD-safe"),
    "SAC302": (Severity.WARNING,
               "fold function not provably associative-commutative"),
    # -- SAC4xx: lints ---------------------------------------------------
    "SAC401": (Severity.WARNING, "variable is assigned but never used"),
    "SAC402": (Severity.WARNING, "unreachable statement"),
    "SAC403": (Severity.WARNING,
               "variable may be uninitialized on some path"),
    "SAC404": (Severity.WARNING,
               "generator variable shadows an outer binding"),
    "SAC405": (Severity.WARNING,
               "WITH-loop body reads the array the loop's result "
               "rebinds at a non-identity index"),
    # -- SAC502: with-loop folding ---------------------------------------
    "SAC502": (Severity.WARNING,
               "with-loop folding cannot split a reader along its "
               "producer's partition"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One static finding: coded, positioned, severity-ranked."""

    code: str
    message: str
    pos: SourcePos | None = None
    severity: Severity = field(default=Severity.ERROR)
    #: Name of the enclosing function, when known.
    function: str | None = None

    @staticmethod
    def make(code: str, message: str, pos: SourcePos | None = None,
             function: str | None = None) -> "Diagnostic":
        """Build a diagnostic with its catalogue severity."""
        severity = CODE_CATALOGUE.get(code, (Severity.ERROR, ""))[0]
        return Diagnostic(code, message, pos, severity, function)

    def __str__(self) -> str:
        where = f"{self.pos}: " if self.pos else ""
        return f"{where}{self.severity.value}: {self.code} {self.message}"


def has_errors(diags) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


# ---------------------------------------------------------------------------
# Emitters.
# ---------------------------------------------------------------------------

def render_text(diags) -> str:
    """One finding per line plus a summary line."""
    lines = [str(d) for d in diags]
    n_err = sum(1 for d in diags if d.severity is Severity.ERROR)
    n_warn = sum(1 for d in diags if d.severity is Severity.WARNING)
    lines.append(f"{n_err} error(s), {n_warn} warning(s)")
    return "\n".join(lines)


def _diag_dict(d: Diagnostic) -> dict:
    out: dict = {
        "code": d.code,
        "severity": d.severity.value,
        "message": d.message,
    }
    if d.pos is not None:
        out["file"] = d.pos.filename
        out["line"] = d.pos.line
        out["col"] = d.pos.col
    if d.function is not None:
        out["function"] = d.function
    return out


def render_json(diags) -> str:
    payload = {
        "diagnostics": [_diag_dict(d) for d in diags],
        "errors": sum(1 for d in diags if d.severity is Severity.ERROR),
        "warnings": sum(1 for d in diags if d.severity is Severity.WARNING),
    }
    return json.dumps(payload, indent=2)


_SARIF_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def render_sarif(diags, tool_name: str = "repro-sac-analysis",
                 tool_version: str = "1.0.0") -> str:
    """SARIF 2.1.0 log with one run and the rule catalogue."""
    used = sorted({d.code for d in diags})
    rules = [
        {
            "id": code,
            "shortDescription": {
                "text": CODE_CATALOGUE.get(code, (Severity.ERROR, code))[1]
            },
        }
        for code in used
    ]
    results = []
    for d in diags:
        result: dict = {
            "ruleId": d.code,
            "level": _SARIF_LEVEL[d.severity],
            "message": {"text": d.message},
        }
        if d.pos is not None:
            result["locations"] = [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": d.pos.filename},
                        "region": {
                            "startLine": d.pos.line,
                            "startColumn": d.pos.col,
                        },
                    }
                }
            ]
        results.append(result)
    log = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "version": tool_version,
                        "informationUri":
                            "https://github.com/repro/sac-mg",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2)
