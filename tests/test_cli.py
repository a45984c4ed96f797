"""CLI behavior: subcommands, exit codes, output stability, DOT export."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import chainmail
from chainmail import enumeration
from chainmail.cli import export_dot, run
from chainmail.connectivity import ConnectivityPair
from chainmail.generators import fixture_names, named_fixture
from chainmail.poset import FinitePoset

from conftest import mk


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(stdin_text)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        old_stdin = __import__("sys").stdin
        __import__("sys").stdin = stdin
        try:
            code = run(argv)
        finally:
            __import__("sys").stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


class TestValidate:
    def test_valid_poset(self):
        payload = json.dumps({"n": 3, "leq": [[0, 1], [1, 2], [0, 2]]})
        code, out, err = invoke(["validate"], payload)
        assert code == 0
        assert json.loads(out) == {"ok": True, "n": 3}

    def test_transitivity_failure_names_triple(self):
        payload = json.dumps({"n": 3, "leq": [[0, 1], [1, 2]]})
        code, out, err = invoke(["validate"], payload)
        assert code == 1
        verdict = json.loads(out)
        assert verdict["ok"] is False
        assert verdict["axiom"] == "transitivity"
        assert verdict["witness"] == [0, 1, 2]
        assert "transitivity" in err

    def test_malformed_json(self):
        code, out, err = invoke(["validate"], "{nope")
        assert code == 1
        assert "malformed JSON" in err


class TestClassify:
    def test_exa_w_is_separated(self):
        code, out, _ = invoke(["classify", "--fixture", "exaW"])
        assert code == 0
        report = json.loads(out)
        assert report["separated"] is True

    def test_json_input_with_connectivity(self):
        pair = named_fixture("exaN")
        payload = json.dumps(pair.lattice.to_json(connectivity=sorted(pair.connected)))
        code, out, _ = invoke(["classify", "--input", "-"], payload)
        assert code == 0
        assert json.loads(out)["connectivity"] is False

    def test_wide_dc_family_exits_2_at_the_guard(self, tmp_path):
        # M_21 with C = the atoms: no two atoms share a connected lower
        # bound, so every set of atoms is in D(C), 2^21 of them
        path = tmp_path / "m21.json"
        path.write_text(json.dumps(mk(21).to_json(connectivity=range(1, 22))), encoding="utf-8")
        code, out, err = invoke(["classify", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == "resource guard: TMD family exceeds 1048576 sets; raise the limit explicitly\n"

    def test_wide_l_plus_family_gets_a_report(self, tmp_path):
        # M_21 with C = the bottom and the atoms: L+ has 2^21 disjoint
        # families, but E4 is decided without listing them, and D(C) is
        # the empty set and the 22 singletons
        path = tmp_path / "m21.json"
        path.write_text(json.dumps(mk(21).to_json(connectivity=range(22))), encoding="utf-8")
        code, out, _ = invoke(["classify", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["absolutely_connected"] == []

    def test_no_source_exits_1(self):
        assert invoke(["classify"]) == (1, "", "error: either --fixture or --input is required\n")

    def test_unknown_fixture(self):
        code, _, err = invoke(["classify", "--fixture", "bogus"])
        assert code == 1
        assert "unknown fixture" in err

    def test_poset_fixture_is_rejected(self):
        code, _, err = invoke(["classify", "--fixture", "exaA"])
        assert code == 1
        assert "connectivity" in err

    def test_pretty_mode(self):
        code, out, _ = invoke(["classify", "--fixture", "exaW", "--pretty"])
        assert code == 0
        assert re.search(r"^separated\s+True$", out, re.M)


# SHA-256 of ``classify --fixture F`` stdout (JSON, then --pretty) for every
# pair fixture; a change to these bytes is a change to the CLI's output
CLASSIFY_DIGESTS = [
    ("exaAA", "7465e423dae30e8a068bf0ac2068c078ddf24cb05852353194f375f7d6f49751",
     "acc1fe6a444ea1471209e241b12454017e4a77293c6e3e02547b06c6d291ef48"),
    ("exaAB", "1830b68ca66f823d587823bd04c5611c9cde2f5d8cc11d0f1f1cf3c15edd9d96",
     "47d0bbfc658d6f2817e6dc79e87aec79fe439b5dbc5b5d49171fbb0174497e61"),
    ("exaB", "4ff2886b820cb68e78d005b008b02e4c38e10f9692b3e8e63a5c6f31bc0a219d",
     "342d5c1c48f3a7f6325cfaac9859fc176a3e7177a8ee59c6fd3639b7286213fa"),
    ("exaC", "4ff2886b820cb68e78d005b008b02e4c38e10f9692b3e8e63a5c6f31bc0a219d",
     "342d5c1c48f3a7f6325cfaac9859fc176a3e7177a8ee59c6fd3639b7286213fa"),
    ("exaH", "4eb2ffc1180b5d85ab698f191471bded804d090984802276b0b7919a23f2fe2d",
     "18fb18c45267426f08c3f228293073da89eed4c8da7e7cafcbaf838cf7eb1928"),
    ("exaI", "d272161c9a8d714d26ce0824daa079103c4d6f8f8840ad90731eceeadee0fb54",
     "feac1cff5cc286260f875c2aa351b141f89f90297154d0c23528ad6a8417c1bf"),
    ("exaJ", "cee453f1d500cfb506f5c0720bf910b75e261f59850e94ef7e2cdf9537b41e69",
     "af2a6d9d4faff5d9c96952bed686cd7ed5726d16c04fc23c00f843beb3d3a7b1"),
    ("exaK", "6d5824f6ac311112374497a7773b37324c1a8b026d6752b7cb1e315269060648",
     "5785de06a40dbeab1d120e307219214d3d4afea8b96e552fc61b654dbb84c6c2"),
    ("exaM", "f8295b53aeb86016da5c3018811289450bffc2b8fcd4267d4b76350dea76d902",
     "f778a0be36ecea7847e4f336a548bf52feace408bd3adc93cd7b8bdaead2277e"),
    ("exaN", "757eec1004c853482a0a9aebcc36286f098787264eea67926d5e270b77c039d0",
     "3de2dff0d3b91be26746d28e20a33e75c34eaf02310ab5cb1f3d026fa50014a8"),
    ("exaT", "70258ee3a0ff7f655add0bbd34eb87c703d30dbf8f0b868c89dba9e65f43411d",
     "a03496dd95c2ac9a05fbe14f9d1bd3c7e737978f0d8e91e3ff209d39764ad343"),
    ("exaU", "87c782925ca8d1747d580cb7a093e0fdc2f3c4c5b8214ccb484c2ace11ed337e",
     "63e039245b5e7f5a05e14822d090317f510a72f21a10bf42df7907a08a2b85db"),
    ("exaV", "e114b351e7a4abb1ab9c65588bb823b059a47116cb835a18f0a8036e7ef3d2a9",
     "410207ec0259cfa6fb70a10c8f5d089f68d0bfeaef3e60deb108b89d0158157d"),
    ("exaW", "fb84e476136acbe552de9fab28527d74562b36200e6644a75f33b4d7ffb0da5b",
     "a32748274be2752104a56c080f1afdef454901a6d4403138f30c46f8b88e2676"),
    ("exaX", "53b0a720cbf436b721c51d9f0af71fde3a914448e057c6688eff58602caaa500",
     "bac8107ec65374702243e1977baf6a66527cee3aae19b9c6fdb7f53529e4bac2"),
    ("sierpinski", "d272161c9a8d714d26ce0824daa079103c4d6f8f8840ad90731eceeadee0fb54",
     "feac1cff5cc286260f875c2aa351b141f89f90297154d0c23528ad6a8417c1bf"),
]


class TestClassifyBytes:
    def test_every_pair_fixture_is_pinned(self):
        pairs = [name for name in fixture_names() if isinstance(named_fixture(name), ConnectivityPair)]
        assert [name for name, _json, _pretty in CLASSIFY_DIGESTS] == pairs

    @pytest.mark.parametrize("name, json_digest, pretty_digest", CLASSIFY_DIGESTS)
    def test_stdout_digest(self, name, json_digest, pretty_digest):
        for extra, digest in (([], json_digest), (["--pretty"], pretty_digest)):
            code, out, err = invoke(["classify", "--fixture", name, *extra])
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of ``exterior --fixture F`` stdout (JSON, then --pretty) for every
# fixture; a pair fixture gives the exterior of its lattice
EXTERIOR_DIGESTS = [
    ("M3", "e7480c54975b43d5b3526c9ff130f7919368461d61b7e4a4476a399fd5f312b2",
     "d1c1760b6ef210d43e5d77852b44948dd5433a92f69a7ac98b035228d61969c8"),
    ("N5", "13cb5eaef7c1ec11760e749af8efdffd8742279e8eddc0e59825ad1be4fadc5f",
     "d1c1760b6ef210d43e5d77852b44948dd5433a92f69a7ac98b035228d61969c8"),
    ("exaA", "8e6ffdc9027980fb84aff90a651998627ccbdebcefd3aac69cc0b8aa5bc25bfd",
     "989b8820f3e4089d7d1d489f6055b55e3424aa422553ea5e606c6dbe3f6703aa"),
    ("exaAA", "4023a595ad74d8e0adeff781139df06eb94954b4442abfca77784eff0f1ab76b",
     "a4257a283530c8f31a345c4a762ecb021fb019a2e3b42c5d64a31f9a8fd3fa16"),
    ("exaAB", "6b2262bf4753e8373fdf2772dc78f14e1fbbff76850f6442a02f8ef5f338cf8e",
     "bc2c969dca1061e4555c1af82beedad48968d84ba58d5e6cf887f3da9fb86b54"),
    ("exaB", "91791e038ee3a98727a583034fa70d98ce89910e0d00933b5ce4e5377e2138a3",
     "8fba8ede06ea19c80a98fcb76cd74abfd0ebb18b81e3a767ddcabd87ad6679fe"),
    ("exaC", "91791e038ee3a98727a583034fa70d98ce89910e0d00933b5ce4e5377e2138a3",
     "8fba8ede06ea19c80a98fcb76cd74abfd0ebb18b81e3a767ddcabd87ad6679fe"),
    ("exaE", "91791e038ee3a98727a583034fa70d98ce89910e0d00933b5ce4e5377e2138a3",
     "8fba8ede06ea19c80a98fcb76cd74abfd0ebb18b81e3a767ddcabd87ad6679fe"),
    ("exaG", "6bba9a5426f706edcfa19a9c4f798c4bf036ad746358967c5f0cd913bbf5ab48",
     "a3bd17e41c6338335a8ca31d55cd2f27f821383caf4fa0f0e482fde40c51e748"),
    ("exaH", "91791e038ee3a98727a583034fa70d98ce89910e0d00933b5ce4e5377e2138a3",
     "8fba8ede06ea19c80a98fcb76cd74abfd0ebb18b81e3a767ddcabd87ad6679fe"),
    ("exaI", "25ecb1368b4440d1ddc73c4d56e014fb3e16d1bf851a2a11c84446e71c4dc365",
     "8aba73728844f086c19e8f13447a2741be9609698ea849e8e65aa73184f57db0"),
    ("exaJ", "2d7c4b0399b4db9d3078b0aa21462e02b37af6ded1ef5b2cc52ed3058a990a82",
     "81c32864a714864fcccc268a82521875212cea3f0b7b548b62f5a8c4ad0ab75d"),
    ("exaK", "f07bd618694aa2578746101209a7a23805ff3dc5b978b737c2ce7af4db8cc89a",
     "dd8a1c5fb911b45ab2dbdfb86d2b2480d63f02a08f5ab96ee93e3e6c5b717aa6"),
    ("exaM", "91791e038ee3a98727a583034fa70d98ce89910e0d00933b5ce4e5377e2138a3",
     "8fba8ede06ea19c80a98fcb76cd74abfd0ebb18b81e3a767ddcabd87ad6679fe"),
    ("exaN", "7c859ecf5275b14e5aeaf655ae5042079dd80cb2ea7106c6ff201650fddb0044",
     "bc2c969dca1061e4555c1af82beedad48968d84ba58d5e6cf887f3da9fb86b54"),
    ("exaT", "50d4c22b8d621e27197f9167acc9f5b343b1a90a6f1dc8edd3e0da92d7e6d236",
     "3baf81be4eaa1fccd074ab07b7d3a6c0107e49bbd2f8df26a47223d48a7197d5"),
    ("exaU", "91791e038ee3a98727a583034fa70d98ce89910e0d00933b5ce4e5377e2138a3",
     "8fba8ede06ea19c80a98fcb76cd74abfd0ebb18b81e3a767ddcabd87ad6679fe"),
    ("exaV", "91791e038ee3a98727a583034fa70d98ce89910e0d00933b5ce4e5377e2138a3",
     "8fba8ede06ea19c80a98fcb76cd74abfd0ebb18b81e3a767ddcabd87ad6679fe"),
    ("exaW", "91791e038ee3a98727a583034fa70d98ce89910e0d00933b5ce4e5377e2138a3",
     "8fba8ede06ea19c80a98fcb76cd74abfd0ebb18b81e3a767ddcabd87ad6679fe"),
    ("exaX", "fa8ce137750bb118c1572a5b85be052f644c96196171ae651002c09f4a9a0a0c",
     "bc2c969dca1061e4555c1af82beedad48968d84ba58d5e6cf887f3da9fb86b54"),
    ("sierpinski", "25ecb1368b4440d1ddc73c4d56e014fb3e16d1bf851a2a11c84446e71c4dc365",
     "8aba73728844f086c19e8f13447a2741be9609698ea849e8e65aa73184f57db0"),
]


class TestExteriorBytes:
    def test_every_fixture_is_pinned(self):
        assert [name for name, _json, _pretty in EXTERIOR_DIGESTS] == list(fixture_names())

    @pytest.mark.parametrize("name, json_digest, pretty_digest", EXTERIOR_DIGESTS)
    def test_stdout_digest(self, name, json_digest, pretty_digest):
        for extra, digest in (([], json_digest), (["--pretty"], pretty_digest)):
            code, out, err = invoke(["exterior", "--fixture", name, *extra])
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of ``exterior --input -`` stdout (JSON, then --pretty) over the
# 406 posets with at most 6 elements, in catalog order
POSETS6_EXTERIOR_SHA256 = ("414f14121c969c7daa7bf023ffd42b70b9eae0551a1e6dd595d1050e758ed382",
                           "9607609918dd7399820be1aaa3256456746afd1287735b3cbefe24b195c6c102")


def test_exteriors_of_every_small_poset_are_pinned(poset_corpus):
    posets = [p for n in range(7) for p in poset_corpus[n]]
    assert len(posets) == 406
    for extra, digest in zip(([], ["--pretty"]), POSETS6_EXTERIOR_SHA256):
        text = ""
        for p in posets:
            code, out, err = invoke(["exterior", "--input", "-", *extra], json.dumps(p.to_json()))
            assert (code, err) == (0, "")
            text += out
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestJsonIntegers:
    """Only JSON integers name elements: anything else exits 1 with a
    message, never a traceback, a truncation or a bool read as 0/1."""

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"n": 2, "leq": [[0, "x"]], "connectivity": [0]}, "bad leq pair"),
            ({"n": 2, "leq": [[0, None]], "connectivity": [0]}, "bad leq pair"),
            ({"n": 2, "leq": [[0, 1.7]], "connectivity": [0]}, "bad leq pair"),
            ({"n": 2.9, "leq": [], "connectivity": [0]}, '"n"'),
            ({"n": True, "leq": [], "connectivity": [0]}, '"n"'),
            ({"n": 2, "leq": [[0, 1]], "connectivity": [True]}, "not an integer"),
            ({"n": 2, "leq": [[0, 1]], "connectivity": [0.0]}, "not an integer"),
            ({"n": 2, "leq": [[0, 1]], "connectivity": 5}, "must be a list"),
            ({"n": 2, "leq": [[0, 1]], "connectivity": None}, 'missing "connectivity" field'),
            ({"n": 2, "leq": [[0, 1]], "connectivity": [5]}, "connectivity element 5 out of range"),
            (5, "must be an object"),
            # two faults: the first in list order is named
            ({"n": 2, "leq": [[0, 5], [0, "x"]], "connectivity": [0]}, "pair (0,5) out of range for n=2"),
            ({"n": 2, "leq": [], "connectivity": [5, "x"]}, "connectivity element 5 out of range"),
        ],
        ids=["string", "null", "float-pair", "float-n", "bool-n", "bool-member",
             "float-member", "scalar-connectivity", "null-connectivity", "member-out-of-range",
             "scalar-document", "two-faulty-pairs", "two-faulty-members"],
    )
    def test_classify_rejects(self, payload, message):
        code, out, err = invoke(["classify", "--input", "-"], json.dumps(payload))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_validate_rejects_float_n(self):
        code, _, err = invoke(["validate"], json.dumps({"n": 2.9, "leq": []}))
        assert code == 1
        assert '"n"' in err


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_leq_entries = st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(list) | _json_values
# sorted pairs close to a partial order, so these documents get past
# validation and reach the computations behind it
_posets = st.integers(1, 6).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    "leq": st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted), max_size=10),
    "closure": st.just("reflexive-transitive"),
    "connectivity": st.lists(st.integers(0, n - 1), max_size=n),
}))
_documents = _posets | st.fixed_dictionaries(
    {"n": st.integers(-2, 6) | _json_values, "leq": st.lists(_leq_entries, max_size=12) | _json_values},
    optional={
        "connectivity": st.lists(st.integers(-1, 6), max_size=6) | _json_values,
        "closure": st.just("reflexive-transitive"),
    },
) | _json_values


class TestUntrustedInput:
    @pytest.mark.parametrize(
        "raw,message",
        [
            (b"[" * 100000 + b"]" * 100000, "malformed JSON"),
            (b'{"n": 1' + b"0" * 5000 + b', "leq": []}', "malformed JSON"),
            (b"\xff\xfe{}", "cannot read"),
        ],
        ids=["deep-nesting", "huge-integer", "not-utf8"],
    )
    def test_unreadable_documents_exit_1(self, tmp_path, raw, message):
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        for command in ("validate", "classify", "exterior"):
            code, out, err = invoke([command, "--input", str(path)])
            assert (code, out) == (1, "")
            assert err.startswith("error:") and message in err and "\n" not in err[:-1]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["validate", "classify", "exterior", "export-dot"]), doc=_documents)
    def test_any_document_exits_0_1_or_2(self, tmp_path, command, doc):
        # the file is rewritten for every example, so one tmp_path serves them all
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke([command, "--input", str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("classify", {"n": 3, "leq": [[0, 1], [1, 2]], "connectivity": [0, 2]}),
            ("export-dot", {"n": 3, "leq": [[0, 1], [1, 2]], "connectivity": [0, 2]}),
            ("exterior", {"n": 3, "leq": [[0, 1], [1, 2]]}),
        ],
        ids=["classify-pair", "export-dot-pair", "exterior-poset"],
    )
    def test_non_transitive_relation_exits_1(self, tmp_path, command, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke([command, "--input", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: input is not a poset: transitivity fails at (0, 1, 2)\n"

    @pytest.mark.parametrize("command", ["classify", "exterior", "export-dot"])
    @pytest.mark.parametrize("value,shown", [("transitive", "'transitive'"), (None, "None"), (1, "1")],
                             ids=["transitive", "null", "one"])
    def test_unknown_closure_exits_1(self, tmp_path, command, value, shown):
        # refused, rather than read as an already closed relation
        doc = {"n": 3, "leq": [[0, 1], [1, 2]], "closure": value}
        if command != "exterior":
            doc["connectivity"] = [0, 2]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke([command, "--input", str(path)])
        assert (code, out) == (1, "")
        assert err == f'error: "closure" must be "reflexive-transitive" when present, got {shown}\n'

    @pytest.mark.parametrize("command", ["classify", "exterior", "export-dot"])
    def test_reflexive_transitive_closure_is_taken(self, tmp_path, command):
        doc = {"n": 3, "leq": [[0, 1], [1, 2]], "closure": "reflexive-transitive"}
        closed = {"n": 3, "leq": [[0, 1], [1, 2], [0, 2]]}
        if command != "exterior":
            doc["connectivity"] = closed["connectivity"] = [0, 2]
        outputs = []
        for obj in (doc, closed):
            path = tmp_path / "input.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            code, out, err = invoke([command, "--input", str(path)])
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_invalid_size_cap_exits_1(self, tmp_path, monkeypatch, value):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"n": 2, "leq": [[0, 1]], "connectivity": [1]}), encoding="utf-8")
        monkeypatch.setenv("CHM_MAX_N", value)
        code, out, err = invoke(["classify", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: CHM_MAX_N must be a positive integer, got '{value}'\n"


class TestExterior:
    def test_exa_a(self):
        code, out, _ = invoke(["exterior", "--fixture", "exaA"])
        assert code == 0
        obj = json.loads(out)
        assert obj["set_count"] == 11
        assert obj["base_is_chainmail"] is True
        assert obj["is_complete_lattice"] is True
        assert [0, 3] in obj["sets"]

    def test_connectivity_field_on_a_non_lattice_is_ignored(self, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"n": 2, "leq": [], "connectivity": [0]}), encoding="utf-8")
        code, out, err = invoke(["exterior", "--input", str(path)])
        assert (code, err) == (0, "")
        assert out == invoke(["exterior", "--input", "-"], json.dumps({"n": 2, "leq": []}))[1]
        assert json.loads(out)["sets"] == [[], [0], [0, 1], [1]]

    def test_wide_family_exits_2_before_its_order(self, tmp_path):
        # every subset of a k-antichain is TMD: 2^12 sets pass the guard,
        # 2^13 do not
        path = tmp_path / "antichain.json"
        path.write_text(json.dumps(FinitePoset.antichain(13).to_json()), encoding="utf-8")
        code, out, err = invoke(["exterior", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == "resource guard: TMD family exceeds 4096 sets; raise the limit explicitly\n"
        path.write_text(json.dumps(FinitePoset.antichain(12).to_json()), encoding="utf-8")
        code, out, err = invoke(["exterior", "--input", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out)["set_count"] == 4096


@pytest.fixture
def no_search(monkeypatch):
    """The enumerator's search, replaced by one that fails if it starts."""
    def search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(enumeration, "_enumerate", search)


class TestEnumerate:
    def test_chainmail_count_json(self):
        code, out, err = invoke(["enumerate", "--kind", "chainmails", "--n", "5"])
        assert code == 0
        assert json.loads(out) == {"kind": "chainmails", "n": 5, "count": 16}
        assert "elapsed" in err  # timing goes to stderr, keeping stdout stable

    def test_poset_count(self):
        code, out, _ = invoke(["enumerate", "--kind", "posets", "--n", "4"])
        assert json.loads(out)["count"] == 16

    def test_catalog_file(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        code, out, _ = invoke(["enumerate", "--kind", "chainmails", "--n", "4", "--catalog", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        posets = [FinitePoset.from_json(json.loads(line)) for line in lines]
        keys = [p.canonical_key() for p in posets]
        assert keys == sorted(keys) and len(set(keys)) == 5

    def test_pretty_mode(self, tmp_path):
        code, out, err = invoke(["enumerate", "--n", "5", "--pretty"])
        assert (code, out) == (0, "chainmails on 5 elements: 16 isomorphism classes\n")
        assert err.startswith("elapsed: ")
        path = tmp_path / "catalog.jsonl"
        code, out, _ = invoke(["enumerate", "--kind", "posets", "--n", "3", "--pretty", "--catalog", str(path)])
        assert (code, out) == (0, f"posets on 3 elements: 5 isomorphism classes\ncatalog written to {path}\n")
        assert len(path.read_text().splitlines()) == 5

    def test_deep_gate_exits_2(self):
        code, _, err = invoke(["enumerate", "--kind", "chainmails", "--n", "9"])
        assert code == 2
        assert "deep" in err

    def test_deep_size_nine_counts(self):
        # the one deep size in tier-1: count-only, about half a second
        code, out, err = invoke(["enumerate", "--deep", "--n", "9"])
        assert (code, out) == (0, '{"kind":"chainmails","n":9,"count":14073}\n')
        assert err.startswith("elapsed: ")

    @pytest.mark.parametrize("where", ["missing-dir", "dir"])
    def test_unwritable_catalog_exits_1(self, tmp_path, where):
        path = tmp_path / "missing" / "x.jsonl" if where == "missing-dir" else tmp_path
        code, out, err = invoke(["enumerate", "--n", "4", "--catalog", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["missing-dir", "dir"])
    def test_unwritable_catalog_exits_1_before_the_search(self, tmp_path, no_search, where):
        path = tmp_path / "missing" / "x.jsonl" if where == "missing-dir" else tmp_path
        code, out, err = invoke(["enumerate", "--deep", "--n", "9", "--catalog", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--n", "9"], ["--deep", "--n", "12"],
                                      ["--kind", "posets", "--n", "10"]])
    def test_refused_run_leaves_the_catalog_path_alone(self, tmp_path, no_search, argv):
        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        old.write_text("kept\n", encoding="utf-8")
        for path in (new, old):
            code, out, err = invoke(["enumerate", *argv, "--catalog", str(path)])
            assert (code, out) == (2, "")
            assert err.startswith("resource guard: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.jsonl"]
        assert old.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("argv", [["--n", "11"], ["--deep", "--n", "11"]])
    def test_past_the_deep_cap_names_the_deep_cap(self, no_search, argv):
        # without --deep too: the refusal names the largest size that runs
        code, out, err = invoke(["enumerate", *argv])
        assert (code, out) == (2, "")
        assert err == "resource guard: chainmail enumeration capped at n=10\n"

    @pytest.mark.parametrize("kind", ["chainmails", "posets"])
    def test_threads_below_one_exit_1(self, kind):
        code, out, err = invoke(["enumerate", "--kind", kind, "--n", "5", "--threads", "0"])
        assert (code, out) == (1, "")
        assert err == "error: threads must be at least 1\n"


class TestFixturesCommand:
    def test_listing(self):
        code, out, _ = invoke(["fixtures"])
        assert code == 0
        rows = json.loads(out)
        names = {r["name"] for r in rows}
        assert {"exaA", "exaW", "exaJ", "M3", "N5"} <= names

    def test_pretty_listing(self):
        # the JSON rows as aligned columns: name, kind, description
        rows = json.loads(invoke(["fixtures"])[1])
        code, out, _ = invoke(["fixtures", "--pretty"])
        assert code == 0
        width = max(len(r["name"]) for r in rows)
        assert out == "".join(f"{r['name']:<{width}}  {r['kind']:<5}  {r['description']}\n" for r in rows)
        assert out.startswith("M3          poset  diamond lattice: bottom, three atoms, top\n")


class TestExportDot:
    def test_two_chain(self):
        text = export_dot(FinitePoset.chain(2))
        assert text.count("->") == 1
        assert "rankdir=BT" in text

    def test_exa_a_has_nine_cover_edges(self):
        code, out, _ = invoke(["export-dot", "--fixture", "exaA"])
        assert code == 0
        assert out.count("->") == 9

    def test_exa_n_styling_split(self):
        code, out, _ = invoke(["export-dot", "--fixture", "exaN"])
        assert out.count('fillcolor="white"') == 4
        assert out.count('fillcolor="gray25"') == 2

    def test_connectivity_on_a_non_lattice_is_drawn_hollow(self, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"n": 2, "leq": [], "connectivity": [0]}), encoding="utf-8")
        code, out, err = invoke(["export-dot", "--input", str(path)])
        assert (code, err) == (0, "")
        assert out == export_dot(FinitePoset.antichain(2), {0})
        assert '  0 [fillcolor="white"];' in out and '  1 [fillcolor="gray25"' in out
        code, out, err = invoke(["classify", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: the carrier of a connectivity pair must be a complete lattice\n"

    def test_round_trip_through_cover_list(self):
        from chainmail.connectivity import ConnectivityPair

        for name in ("exaA", "M3", "N5", "exaG", "exaN", "exaW", "exaK"):
            fixture = named_fixture(name)
            poset = fixture.lattice if isinstance(fixture, ConnectivityPair) else fixture
            text = (
                export_dot(poset, fixture.connected)
                if isinstance(fixture, ConnectivityPair)
                else export_dot(poset)
            )
            covers = [
                [int(a), int(b)]
                for a, b in re.findall(r"^\s*(\d+) -> (\d+);$", text, re.M)
            ]
            payload = {"n": poset.n, "leq": covers, "closure": "reflexive-transitive"}
            again = FinitePoset.from_json(payload)
            assert again.is_isomorphic(poset)

    @pytest.mark.parametrize("where", ["missing-dir", "dir"])
    def test_unwritable_output_exits_1(self, tmp_path, where):
        path = tmp_path / "missing" / "x.dot" if where == "missing-dir" else tmp_path
        code, out, err = invoke(["export-dot", "--fixture", "exaN", "--output", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_output_file(self, tmp_path):
        path = tmp_path / "d.dot"
        code, out, _ = invoke(["export-dot", "--fixture", "M3", "--output", str(path)])
        assert code == 0 and out == ""
        assert path.read_text().count("->") == 6


class TestByteStability:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--fixture", "exaW"],
            ["classify", "--fixture", "exaX", "--pretty"],
            ["exterior", "--fixture", "exaA"],
            ["enumerate", "--kind", "chainmails", "--n", "5"],
            ["fixtures"],
            ["export-dot", "--fixture", "exaN"],
        ],
    )
    def test_repeat_runs_are_identical(self, argv):
        first = invoke(list(argv))
        second = invoke(list(argv))
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--input", "PAIR"],
            ["classify", "--fixture", "exaW"],
            ["exterior", "--fixture", "exaA"],
            ["enumerate", "--n", "5"],
        ],
    )
    def test_repeat_run_leaves_no_cyclic_garbage(self, argv, tmp_path):
        # only the first call builds the parser; later calls free all
        # their objects by reference counting
        pair = named_fixture("exaN")
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair.lattice.to_json(connectivity=sorted(pair.connected))),
                        encoding="utf-8")
        argv = [str(path) if arg == "PAIR" else arg for arg in argv]
        assert invoke(argv)[0] == 0
        gc.collect()
        gc.disable()
        try:
            assert invoke(argv)[0] == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_usage_errors_repeat_byte_for_byte(self):
        outcomes = []
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as caught:
                run(["enumerate", "--kind", "lattices", "--n", "3"])
            outcomes.append((caught.value.code, err.getvalue()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2
        assert outcomes[0][1].startswith("usage: chainmail enumerate")
        assert "invalid choice: 'lattices'" in outcomes[0][1]


def _module_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainmail.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestModuleEntry:
    def test_python_dash_m_prints_usage(self):
        done = subprocess.run([sys.executable, "-m", "chainmail", "--help"],
                              capture_output=True, text=True, env=_module_env(), timeout=60)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: chainmail")

    def test_closed_stdout_exits_1_with_one_error_line(self):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "chainmail", "fixtures"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=_module_env(), timeout=60)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "BrokenPipeError" not in done.stderr
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
