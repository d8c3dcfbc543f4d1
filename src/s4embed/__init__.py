"""Obstructions and classifications for smooth embeddings in the 4-sphere.

The package decides whether a connected sum of lens spaces, a Seifert
fibred 3-manifold, or the double branched cover of a 3/4-strand pretzel
link embeds smoothly in S^4, reporting certificates for every verdict.
"""

from .classify import full_report
from .lattice import LatticeSubset, enumerate_subsets
from .manifolds import (
    LensSum,
    PretzelCover,
    SeifertManifold,
    euler_invariant,
    first_homology,
    neg_continued_fraction,
    normalize_seifert,
)
from .obstructions import (
    char_vector_criterion,
    double_subset_obstruction,
    nonorientable_obstruction,
    semidefinite_obstruction,
)
from .plumbing import PlumbingTree, plumbing_tree
from .spin import mu_bar, spin_profile, wu_sets

__all__ = [
    "LatticeSubset",
    "LensSum",
    "PlumbingTree",
    "PretzelCover",
    "SeifertManifold",
    "char_vector_criterion",
    "double_subset_obstruction",
    "enumerate_subsets",
    "euler_invariant",
    "first_homology",
    "full_report",
    "mu_bar",
    "neg_continued_fraction",
    "nonorientable_obstruction",
    "normalize_seifert",
    "plumbing_tree",
    "semidefinite_obstruction",
    "spin_profile",
    "wu_sets",
]

__version__ = "0.1.0"
