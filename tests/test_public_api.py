"""The package's public names: a change that removes code keeps them."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import chainmail

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_readme_example_prints_what_its_comments_say():
    # each `print(...)  # value` line of README's python block: the value,
    # or the value then ": " and a remark, is the line it prints
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    said = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(said) == len(printed) == block.count("print(")
    for comment, line in zip(said, printed):
        assert comment == line or comment.startswith(line + ": ")
