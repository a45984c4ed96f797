"""CLI behavior: subcommands, exit codes, output stability, DOT export."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import chainmail
from chainmail.cli import export_dot, run
from chainmail.generators import named_fixture
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

    def test_wide_l_plus_family_exits_2_at_the_guard(self, tmp_path):
        # M_21 with C = the bottom and the atoms: every set of atoms is a
        # TMD family of L+, 2^21 of them
        path = tmp_path / "m21.json"
        path.write_text(json.dumps(mk(21).to_json(connectivity=range(22))), encoding="utf-8")
        code, out, err = invoke(["classify", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == "resource guard: TMD family exceeds 1048576 sets; raise the limit explicitly\n"

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
            (5, "must be an object"),
        ],
        ids=["string", "null", "float-pair", "float-n", "bool-n", "bool-member",
             "float-member", "scalar-connectivity", "scalar-document"],
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
    @given(command=st.sampled_from(["validate", "classify", "exterior"]), doc=_documents)
    def test_any_document_exits_0_1_or_2(self, tmp_path, command, doc):
        # the file is rewritten for every example, so one tmp_path serves them all
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke([command, "--input", str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err


class TestExterior:
    def test_exa_a(self):
        code, out, _ = invoke(["exterior", "--fixture", "exaA"])
        assert code == 0
        obj = json.loads(out)
        assert obj["set_count"] == 11
        assert obj["base_is_chainmail"] is True
        assert obj["is_complete_lattice"] is True
        assert [0, 3] in obj["sets"]


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

    def test_deep_gate_exits_2(self):
        code, _, err = invoke(["enumerate", "--kind", "chainmails", "--n", "9"])
        assert code == 2
        assert "deep" in err


class TestFixturesCommand:
    def test_listing(self):
        code, out, _ = invoke(["fixtures"])
        assert code == 0
        rows = json.loads(out)
        names = {r["name"] for r in rows}
        assert {"exaA", "exaW", "exaJ", "M3", "N5"} <= names


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
