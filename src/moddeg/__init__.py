"""Exact-arithmetic computations with module degenerations: certificates,
submodule transport, composition series, triangular representations,
ladder certificates and their deformation families."""

from .fields import GF, QQ, DEFAULT_PRIME
from .linalg import Matrix, Subspace
from .algebras import (AlgebraPresentation, ModuleMap, Report,
                       Representation, Submodule, direct_sum,
                       find_isomorphism, hom_basis, hom_dim, is_isomorphic,
                       kernel_module, image_module, cokernel_module,
                       quotient_module, sub_representation,
                       submodule_generated, validate, zero_representation)
from .degeneration import (ChainResult, HomDefectReport,
                           RiedtmannCertificate, codim,
                           compose_certificates, hom_defect, orbit_dim_gl,
                           push_submodule, split_submodule,
                           trivial_certificate, verify_certificate,
                           virtual_chain)
from .series import (CompositionSeries, ModuleChain, TriangularRep,
                     chain_to_triangular, composition_series,
                     composition_vector, series_chain, series_isomorphic,
                     series_to_triangular, simultaneous_triangularize,
                     socle, tc_idempotent_matrices, tc_membership,
                     triangular_to_series, upper_triangular_hom_basis)
from .ladders import (DeformationFamily, LadderCertificate, build_family,
                      evaluate_family, ladder_from_columns, make_monic,
                      orbit_dim_ud, psi_embed, upper_triangular_algebra,
                      verify_ladder)
from .oracles import (enum_submodules, nilpotent_degenerates,
                      nilpotent_rank_profile)
from .io_json import (CompositionVectorDoc, Document, document_for,
                      format_document, parse_document)

__all__ = [name for name in dir() if not name.startswith("_")]
