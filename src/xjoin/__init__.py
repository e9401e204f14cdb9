"""Finite X-to-join machinery: semilattice spectra, Booleanizations, germ
groupoids, bisection algebras and inverse-hull combinatorics."""

from .semilattice import (
    FinMeetSemilattice,
    LawViolation,
    XRelation,
    builtin_relations,
    chain,
    characters,
    diamond,
    is_cover,
    dense_in,
    spectrum,
    x_atoms,
    x_core,
    x_prime,
    x_tight,
)
from .boolalg import (
    BAMorphism,
    FinBooleanAlgebra,
    SemilatticeRep,
    basic_set,
    booleanization,
    is_proper,
    is_x_to_join,
    universal_extension,
    x_pi,
)
from .invsgp import (
    FinInverseSemigroup,
    act,
    compatible,
    conjugate,
    from_partial_maps,
    invariant_closure,
    natural_leq,
    spectrum_invariant,
    validate,
)
from .groupoid import FinGroupoid, germ_groupoid, is_local_bisection, theta
from .bisection import (
    AdditiveMorphism,
    BisAlgebra,
    check_presentation,
    check_variety_identities,
    find_universal_morphism,
    iota,
    is_weakly_meet_preserving,
    theorem_quotients_check,
)
from .lcmhull import (
    FreeMonoid,
    HullElement,
    NatPow,
    NRtimesNx,
    ZappaSzepProduct,
    adding_machine,
    gen_xa,
    gen_xu,
    hull_inv,
    hull_mul,
    is_foundation_set,
    lemma_found_check,
    zappa_szep,
)

__version__ = "0.1.0"
