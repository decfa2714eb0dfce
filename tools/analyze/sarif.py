"""Minimal SARIF 2.1.0 emitter for mellow-analyze."""

from __future__ import annotations

import json

from model import Finding


def to_sarif(findings: list[Finding], registry: dict,
             tool_version: str = "1.0.0") -> str:
    """SARIF for @p findings; @p registry (registry.RULES) supplies the
    rule ids and descriptions."""
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id, rule in registry.items()
    ]
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.file,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": f.line},
                    }
                }
            ],
        }
        for f in findings
    ]
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "mellow-analyze",
                        "informationUri": "tools/analyze/mellow_analyze.py",
                        "version": tool_version,
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)
