"""mellow-analyze: the static checker for mellowsim.

See mellow_analyze.py for the command-line entry point, registry.py
for the rule list, rules.toml for the manifest, and DESIGN.md §9
("Static analysis architecture") for how it relates to the compiler /
clang-tidy layer.
"""
