"""Numerical verification toolkit for character sums and central L-values
along cosets of character groups mod prime powers.

Layers, bottom up: exact modular arithmetic (`modular`), characters and
their one-unit logarithm parameter (`characters`), Gauss-sum closed forms
and coset averages (`gauss`), central L-values with tracked error bounds
(`lcentral`), second-moment predictions along cosets (`moments`), the
shift-and-average inequalities (`vdc`), hybrid-window scans (`hybrid`),
and a reporting CLI (`cli`).
"""
