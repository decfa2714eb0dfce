"""Minimal SARIF 2.1.0 emitter for mellow-analyze."""

from __future__ import annotations

import json

from model import ALL_RULES, Finding

_RULE_DESCRIPTIONS = {
    "value-escape":
        "`.value()` on a strong type outside the whitelisted "
        "conversion sites escapes the typed address/unit domain.",
    "layering":
        "Include or symbol reference crossing module layers outside "
        "the manifest in tools/analyze/layers.toml.",
    "nondet-handler":
        "Nondeterministic API (wall clock, raw RNG, unordered "
        "iteration, I/O) reachable from an EventQueue::schedule "
        "callback.",
    "request-lifetime":
        "A request object is read after ownership was handed to a "
        "queue.",
    "confinement-global":
        "Mutable static-storage state that is not std::atomic, a "
        "sync.hh type, thread_local or const races under the parallel "
        "sweep (tools/analyze/confinement.toml [global]).",
    "atomic-order":
        "A raw std::atomic / std::memory_order spelling outside the "
        "sync.hh wrapper home "
        "(tools/analyze/protocol.toml [atomic_order]).",
    "handler-blocking":
        "A mutex acquisition or blocking call reachable from an "
        "EventQueue::schedule handler; a blocking handler stalls its "
        "simulation on another thread "
        "(tools/analyze/protocol.toml [handler_blocking]).",
}


def to_sarif(findings: list[Finding], tool_version: str = "1.0.0") -> str:
    rules = [
        {
            "id": rule,
            "shortDescription": {"text": _RULE_DESCRIPTIONS.get(rule, rule)},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in ALL_RULES
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
