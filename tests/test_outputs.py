"""Byte-level digests of what ``splitfp run`` writes for every preset.

Each preset is run from a config naming it (its first start, its own
stopping rule) with ``--format json``; the sha256 of each file written to
the output directory, ``trace.json``, ``residual.svg`` and
``summary.json``, is pinned here.  ``tests/test_golden.py`` pins the trace
CSVs; these are the other outputs the trace writers and the summary give.
"""

import hashlib
import json

import pytest

from splitfp.cli import main

RUN_OUTPUT_SHA256 = {
    "adaptive_demo": {
        "residual.svg": "0bfd4f380246a30f40da5fe41785412a56c19eb7b7936e1f89d56a24aba107cc",
        "summary.json": "21045838701e495c8cc38ebfee2ffdf010a846c0e8ff7edeab71679a3f978157",
        "trace.json": "fa1545dbb20671a7b93227c0b806a1805781121066b97180944aa8257a97f710",
    },
    "bnm_t1": {
        "residual.svg": "14dc99e9054a16b8eb056a096fd63a70ed6f528b8be9994799fdbd6cf1f1a108",
        "summary.json": "12ddab272ae4f3624a51f20afccf2c509045757ceddcd5a2243246b0a4f59b1d",
        "trace.json": "6b7a77bc2af04f20857631620b1f9fd728df0385e08a6663a2eb1d1b1a3b3a6c",
    },
    "bnm_t2": {
        "residual.svg": "fcf09ba689212e18c82c775969aa28ebae962e1ff185041216e9096d329936b4",
        "summary.json": "d49b289af7595fb718b3c53e47e4323d534bcb21df2e613987f962843119ccdc",
        "trace.json": "5ab1d5cd2bbd989bdccc41cb50a9be16ca1f6db34a1078f3dc6b96e4436ddeb3",
    },
    "extragradient_1d": {
        "residual.svg": "e8a172baa95f2cbbdb2beb5d81e5c7d5e11c624e3ca5c232af89b73edfeaae82",
        "summary.json": "1a6229e6a6a7976b3b3e520ee49d14aeeefa9960a26345274842d233ed25749a",
        "trace.json": "a1c0a8e989f1da352cbcdf39c1eced9fa3b838de5549ff0496a2886fff385845",
    },
    "scfpp_smallS": {
        "residual.svg": "0181809a1105906c6cf8de7cf3b4a79110aabff582e82d9849e195fdcc8310a5",
        "summary.json": "ecb7c3e06efcb1d2c9b8d67023bc7fe012dbd46815a291f79022af0fd3aa8d9e",
        "trace.json": "68ed079f29b4bd64d6b210635e25a1d50a601b89b22f979ea10aa6d80420d3df",
    },
    "synchronal_demo": {
        "residual.svg": "cdad88ee693917397c9463b7f551a583814485f4bee89de9875138747c33f1d6",
        "summary.json": "241df5ed11f4dc23f525c96813851e543d7ea8eca9804c1d74140628c4b10fa4",
        "trace.json": "6d1c8c336a6b879e2f1bdeb28bc96212ba0ba34531c0c7468442a80b7afeb6a8",
    },
    "wq_t3": {
        "residual.svg": "501500c64f0272023a59df23759c08d8b64077cf8e4f14ee840cee9fcd746695",
        "summary.json": "a18d9f4b7a1e19134395b598a6cc9c25005a4e1d69e8a3de1f68c2d9a75363d2",
        "trace.json": "82dcb57b1e8eadf51247114f328cc6e1be35b69ea9923abf8afc7f6b41cea969",
    },
    "wq_t4": {
        "residual.svg": "6b1500fcd11e19827baed23c77d7281762be749a64e4a74d9bd3f599357a653a",
        "summary.json": "4c0a885b5ea4d46198131fd262d3ed35f234aec867e3faa777998328b101e446",
        "trace.json": "3b0fb9c5269528d1a30545636debada9be5e9535666400fad9c4b7b1564cc1ca",
    },
}


@pytest.mark.parametrize("ex_id", sorted(RUN_OUTPUT_SHA256))
def test_run_output_digests(ex_id, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"problem": {"example": ex_id}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out),
                 "--format", "json"]) == 0
    # stdout is the summary as written
    assert capsys.readouterr().out.encode("utf-8") == (out / "summary.json").read_bytes()
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in out.iterdir()}
    assert got == RUN_OUTPUT_SHA256[ex_id]
