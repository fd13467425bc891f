"""hjlab: semigroup retraction structures, ultrafilter identities on finite
carriers, and monochromatic-witness search (combinatorial lines, arithmetic
progressions) at desk scale."""

__version__ = "0.1.0"

from .semigroups import (
    FiniteSemigroup,
    RetractionFamily,
    SubsetQuery,
    cyclic_semigroup,
    flag_index,
    flag_semigroup,
    is_nice_subsemigroup,
    validate_retraction,
)
from .words import (
    X,
    WordSemigroup,
    format_word,
    parse_word,
    substitution_family,
)
from .tableio import (
    format_semigroup_file,
    parse_semigroup_file,
    parse_semigroup_text,
)
from .ultra import (
    PrincipalUltrafilter,
    build_agreement_set,
    check_agreement_equivalence,
    check_fip,
    check_tensor_assoc,
    find_agreement_ultrafilter,
    image,
    member,
    tensor_power_failures,
    uf_product,
    uf_tensor,
)
from .corpus import (
    CorpusEntry,
    enumerate_endomorphisms,
    generate_corpus,
    sweep_tensor_power,
)
from .instances import (
    ApResidueColoring,
    ModSumColoring,
    PullbackColoring,
    TableColoring,
    parse_coloring_spec,
)
from .search import (
    HypergraphSolver,
    LineHypergraph,
    SAT,
    UNSAT,
    WitnessOutcome,
    ap_edges,
    find_ap_via_words,
    finite_witness_search,
    hj_check,
    hj_instance,
    hj_number,
    hj_symmetry,
    least_size,
    vdw_check,
    vdw_instance,
    vdw_number,
    vdw_symmetry,
    verify_proper_coloring,
    word_witness_search,
)
from .certificates import (
    coloring_certificate,
    finite_witness_certificate,
    hj_coloring_certificate,
    render_certificate,
    save_certificate,
    vdw_coloring_certificate,
    verify_certificate_text,
    words_witness_certificate,
)
from . import errors
