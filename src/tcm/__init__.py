"""Exact class numbers, ideal Euler functions, and per-degree torsion bounds.

The library computes, for imaginary quadratic fields: class numbers by
two independent exact methods, the ideal Euler function and ideal
enumeration by norm, degree sandwiches for ray class fields, exhaustive
verification of the mod-N unit-group facts behind the torsion-squaring
rule, an explicit per-degree upper bound B(d) on CM torsion, and the
analytic product estimates the bound's constant shadows.

Each name is imported from its module (``from tcm.quad_core import
class_number``); the package itself holds only ``__version__`` and
imports no submodule.
"""

__version__ = "0.1.0"
