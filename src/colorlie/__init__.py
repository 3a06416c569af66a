"""colorlie: exact cohomology of three-dimensional color Lie algebras.

Validates color Lie algebra data, certifies the PBW property of the
enveloping algebra by Diamond-Lemma overlap reduction, builds the Koszul-dual
differential graded algebra and computes its cohomology with trivial
coefficients, with rational-series recognition of the Betti numbers.
"""

from .algebra import (ColorLieAlgebra, CommutationMatrix, GradingAssignment,
                      find_grading)
from .cohomology import (BettiTable, CohomologyClass, betti,
                         betti_from_differential, cup_product,
                         representatives, representatives_from_differential)
from .differential import (Differential, check_d_squared,
                           differential_from_brackets)
from .dual import (DgaElement, SignAlgebra, dual_of, enveloping_sign_algebra,
                   monomial_basis, multiply, quadratic_dual)
from .linalg import ExactMatrix, image_basis, rank, rank_kernel
from .pbw import (QuadLinRelation, groebner_check, normal_words, reduce_word,
                  uea_relations)
from .scalars import Scalar, as_scalar, parse_scalar
from .series import RationalSeries, abelian_closed_form, recognize

__version__ = "0.1.0"
