"""Write expected.json, the outputs every benchmark run is checked against.

    python3 perfbench/record.py

The digests pin the library's outputs at the commit where they were
recorded.  Record again only for a change that alters catalogs, classify
output or verdicts on purpose.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(cm) -> dict:
    out = {}
    enum = cm.enumeration
    out["enum-chainmails"] = {"catalog_sha256": workloads.catalog_digest(
        enum.enumerate_connected_chainmails(8, want_catalog=True).catalog)}
    out["enum-posets-t2"] = {"catalog_sha256": workloads.catalog_digest(
        enum.enumerate_posets(8, want_catalog=True).catalog)}

    fixtures = {}
    for name in cm.generators.fixture_names():
        if isinstance(cm.generators.named_fixture(name), cm.connectivity.ConnectivityPair):
            code, stdout, _err = workloads.run_cli(cm.cli, ["classify", "--fixture", name])
            if code != 0:
                raise SystemExit(f"classify --fixture {name} exited with {code}")
            fixtures[name] = workloads.sha256(stdout)
    wide = []
    with run.workdir("record") as tmp:
        tmp.mkdir(parents=True)
        first_pass = workloads.POOL_PER_WIDTH * len(workloads.WIDTHS)
        for i, structure in enumerate(workloads.wide_batch(workloads.DEFAULT_SEED, first_pass)):
            path = tmp / f"wide-{i}.json"
            path.write_text(workloads.wide_json(*structure), encoding="utf-8")
            code, stdout, _err = workloads.run_cli(cm.cli, ["classify", "--input", str(path)])
            if code != 0 or workloads.wide_report_problems(json.loads(stdout), *structure):
                raise SystemExit(f"wide input {i}: exit {code} or an inconsistent report")
            wide.append(workloads.sha256(stdout))
    out["classify-wide"] = {"fixtures": fixtures, "default_seed_sha256": wide}

    posets, pairs = workloads.sweep_corpus(cm)
    bits = "".join("1" if p.is_chainmail() else "0" for p in posets)
    verdicts = [workloads.verdict_bits(cm.connectivity.classify(cm.connectivity.ConnectivityPair(*pair)))
                for pair in pairs]
    out["sweep-small"] = {"verdicts_sha256": workloads.sweep_digest(bits, verdicts),
                          "chainmail_bits": bits, "pair_verdicts": verdicts}
    return out


def main() -> int:
    cm = workloads.load_chainmail()
    workloads.EXPECTED_PATH.write_text(json.dumps(record(cm), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
