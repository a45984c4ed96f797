"""The package's public names: a change that removes code keeps them."""

from __future__ import annotations

import chainmail

PUBLIC_NAMES = [
    "ConnectivityPair", "ElementSet", "EnumerationResult", "FinitePoset", "FormatError",
    "Graph", "GuardExceeded", "Hypergraph", "PreconditionError", "TaxonomyReport",
    "TmdFamily", "Violation", "absolutely_connected_elements", "borger_implication_check",
    "canon", "cl0", "cl1", "cl1_half", "cl1_prime", "cl2", "cl3", "classify", "components",
    "config", "connectivity", "downclosed_subchainmails", "downset_lattice_pair",
    "downset_to_tmd", "e1", "e2", "e3", "e4", "enumerate_connected_chainmails",
    "enumerate_connectivity_pairs", "enumerate_posets", "enumeration", "errors", "exterior",
    "exterior_as_absolute", "exterior_is_complete", "forest_poset_check",
    "frame_equivalence_check", "galois_adjunction_holds", "generators",
    "graph_connectivity_pair", "hypergraph_connectivity_pair", "inclusion_poset",
    "is_absolute", "is_multicoreflective", "is_orthogonal", "is_separated",
    "is_subchainmail_of", "k_connectivity_pair", "kernel", "local_join", "named_fixture",
    "poset", "sigma_closure", "tmd_to_downset", "topology_pair",
]


def test_public_names_are_unchanged():
    assert sorted(chainmail.__all__) == PUBLIC_NAMES
