"""colorlie: exact cohomology of three-dimensional color Lie algebras.

Validates color Lie algebra data, certifies the PBW property of the
enveloping algebra by Diamond-Lemma overlap reduction, builds the Koszul-dual
differential graded algebra and computes its cohomology with trivial
coefficients, with rational-series recognition of the Betti numbers.
"""

__version__ = "0.1.0"
