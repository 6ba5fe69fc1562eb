"""Exact-arithmetic homology of shalgebras and qualgebras.

The package builds the prismatic chain complex of a finite two-operation
structure, computes its integer homology through Smith normal form,
cross-checks the algebraic boundary against labeled generalized prisms,
and evaluates homology-class invariants of colored knotted-trivalent-graph
diagrams.
"""

from .algebra import (AxiomReport, Classification, OperationTable, Shalgebra,
                      check_axioms, classify, conj_cyclic, conj_symmetric,
                      conjugation_qualgebra, diagonal_action, load_structure,
                      mul_mod_shalgebra, one_element, save_structure)
from .chains import (Chain, ChainComplex, HomologyGroup,
                     export_boundary_triplets, smith_normal_form)
from .errors import (AxiomError, NotACycleError, StructureError,
                     VerificationError)
from .knots import (InvariantResult, KTGDiagram, enumerate_colorings,
                    foam_invariant, invariant, load_diagram,
                    load_fixture_diagram, move_fixture_pairs,
                    represented_cycle, save_diagram)
from .moves import apply_move
from .prismatic import (BracketedTuple, ExtraCell, PrismaticComplex,
                        boundary_generator, bracketed, build_bar_complex,
                        build_complex, build_rack_complex, compositions,
                        degenerate_span, face)
from .prisms import (LabeledPrism, act_on_prism, geometric_faces,
                     good_labeling, inductive_labeling, path_endomorphism,
                     prism_to_dict)

__version__ = "0.1.0"
