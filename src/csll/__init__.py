"""Client/server session calculus toolkit.

Parsing, linear typechecking with a cyclic-derivation validity condition,
full and deterministic reduction semantics with exploration and termination
analysis, and a fixed-point linear-logic proof backend with a mechanical
reduction/proof-step correspondence.
"""
