"""sphere-forge: triangulated n-spheres with prescribed-degree self-maps.

The library builds four families of triangulated spheres that map
simplicially onto the minimal (n+2)-vertex sphere with a chosen degree,
computes degrees by signed preimage counting and by an independent
integer-homology route, and verifies the combinatorial facts behind the
constructions, including exhaustive minimality sweeps in dimension two.
"""

from .complex_core import (
    Complex,
    FVector,
    Simplex,
    boundary_complex,
    cone,
    faces,
    f_vector_and_euler,
    join,
    link,
    make_complex,
    pseudomanifold_check,
    simplex,
    standard_sphere,
    union,
)
from .constructions import (
    build_double_cone_sphere,
    build_facet_cone_sphere,
    build_join_cone_sphere,
    build_stacked_sphere,
    verify_bundle,
)
from .disc_delta import DeltaDisc, build_delta, disc_sign_census
from .homology import (
    HomologyGroup,
    IntegerMatrix,
    SNFResult,
    boundary_matrix,
    homology_groups,
    kernel_basis,
    smith_normal_form,
    sphere_check,
)
from .labels import VertexLabel, parse_label, u_label, u_pair, v_label
from .minimality import (
    CensusEntry,
    enumerate_2spheres,
    max_abs_degree,
    verify_small_sphere_bounds,
)
from .orientation import (
    Chain,
    OrientedComplex,
    coherent_orientation,
    fundamental_cycle,
    sort_sign,
)
from .simplicial_map import (
    ConstructionBundle,
    DegreeReport,
    VertexMap,
    check_simplicial,
    compose,
    degree_by_counting,
    degree_by_cycle,
    identity_map,
    swap_map,
)

__version__ = "0.1.0"
