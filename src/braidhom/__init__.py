"""Exact arithmetic for the Lawrence-Bigelow homological braid representations.

The package computes, over sparse multivariate Laurent rings: the
composition-indexed bases of the twisted (co)homology of configuration
spaces of surfaces, the intersection pairings between them, the
quantum-factorial diagonal embeddings relating ordinary and locally-finite
homology, the reduced Burau and Lawrence-Krammer-Bigelow representations
with exact braid-relation and duality checks, genericity tests for
specialized local systems, and the completed group ring with its helix
classes.

The public names load their module on first use (PEP 562), so a process
pays only for the modules it touches: `braidhom.cli rep` loads `cli`,
`clitext`, `braid`, `ring`, `compositions` and `values` (and `fields` for
`--specialize`).  Every matrix the command line prints goes through one
formatter, `ring.matrix_text`, which builds each monomial's text once per matrix.
"""

from importlib import import_module

# The function `compositions` shadows its module's name, so it is bound now:
# a later import of the submodule would otherwise leave the module here.
from .compositions import compositions, count, rank, unrank

_EXPORTS = {
    "braid": ("BraidWord", "RepMatrix", "braid_relations_hold", "evaluate_word",
              "generator_matrix"),
    "completion": ("CompletedElement", "CompletedVector", "Ray", "completed_from_json",
                   "completed_to_json", "equal", "helix_class", "include_group_ring",
                   "is_in_group_ring", "is_zero", "left_circle_helix", "module_action",
                   "to_group_ring"),
    "compositions": ("compositions", "count", "rank", "unrank"),
    "embeddings": ("ConjugationCertificate", "EmbeddingMatrix", "InjectivityCertificate",
                   "ReducibilityWitness", "certify_injective", "diagonal_conjugation_integrality",
                   "embedding_matrix", "reducibility_witness"),
    "fields": ("ComplexApprox", "IntegersModP", "Rationals"),
    "homology": ("FiniteChainComplex", "ModulePresentation", "ShapiroVerdict",
                 "SpecializationPoint", "circle_cohomology", "circle_complex",
                 "complex_from_json", "complex_to_json", "genericity_check",
                 "homology_ranks_at", "shapiro_circle_check", "shapiro_double_cover_check"),
    "pairing": ("PairingMatrix", "closed_form_pairing", "delta_pairing", "dual_representation",
                "geometric_pairing", "geometric_pairing_matrix", "inversions",
                "local_intersection_sum"),
    "ring": ("GroupRingElement", "Integers", "LaurentRing", "LocalSystem", "exact_divide",
             "standard_local_system"),
    "surfaces": ("FLAVOURS", "SIDES", "BasisClass", "SurfaceTriad", "basis", "check_homogeneity",
                 "dimension", "disc_triad", "quantum_factorial", "quantum_integer"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups (and the patching of module globals) see it
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
