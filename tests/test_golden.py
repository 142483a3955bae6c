"""Byte-level golden digests of everything a user sees from the presets.

Each digest is the sha256 of one output, recorded once and pinned here:

- the trace CSV of every preset, run from its first start under its own
  stopping rule;
- the stdout of ``splitfp reproduce t1..t4``;
- the stdout of ``splitfp verify <op> declared --seed 1`` for every catalog
  operator;
- the decimal oracle's records, ``repr((n, x, y))`` of each, re-executed
  from every preset start at 30 digits over ``ORACLE_MAX_N`` steps, for
  every preset the oracle re-executes; for the others, the message it
  refuses them with.

Any refactor of the solver families, the operator classes or the CLI must
leave all of them unchanged.
"""

import hashlib

import pytest

from splitfp.cli import main, write_trace_csv
from splitfp.diagnostics import (
    OracleUnsupported,
    PrecisionOracleConfig,
    reexecute_high_precision,
)
from splitfp.presets import get_example, run_example

TRACE_CSV_SHA256 = {
    "adaptive_demo": "319e1eb614d24d33a1b396a5a94729f248094c0121580aa841cd330f37ae8418",
    "bnm_t1": "a0f6d97747fd7ff2621e2e0e5d33b8a27bbd9aeb9db5b0676068b3bec99e46c2",
    "bnm_t2": "d0dde715e305c3041b30872b02b1098356ddd869e08b7420bda716f651a1d29b",
    "extragradient_1d": "b4a19a0ae8888803440eee4f14c98b508c06daec348c42e943986a6c4a45898b",
    "scfpp_smallS": "13b845e0b6c8f29555091b3aaae0a6484da0e3f95ff5dd72f7f8ac8ad580078a",
    "synchronal_demo": "809ef2bc03114c45c04cf80faa52167df8fe4190504adcc5f74e4967ce59bda5",
    "wq_t3": "4e9aaf963a13384cba8094e71460105748e7d4f10833171fcab8cdc6f02a7954",
    "wq_t4": "a39ccbb6b33898ec9f807327442f2cbcdfdc9abcb9bc7a0a11d55d09c5134011",
}

REPRODUCE_SHA256 = {
    "t1": "2a6227bb4dc7b0fbbd3230976b96708a705f2995df4e0c96bc707bb3ecab43fd",
    "t2": "8284d87aff1531116e08a38a6f09003a49e3f03cf18ffa1681f085628e5bde0b",
    "t3": "ee7adc26c8f6552b6fc2636a10f61dd6bd8c53f1fa1eaddcb8738076fe2d373c",
    "t4": "e826350940674c3ffc98d2c63e877e9ce2297b70c8e6daca0857b826d1a282d2",
}

VERIFY_SHA256 = {
    "ballMap": "c34a47e327e2645ee5ab810ae0c837ce5fc4445e02d21a01a1f7b8d00686886d",
    "bigU": "f7bb8ea9810f82f045d04e80457265f3347f38151a2f78699dd6a346a984cc27",
    "browderPetryshyn": "48279efc9f1b8de437ee95706dd259c823d69e8031002a695728c2e3b8343104",
    "heDu": "348e8025cf289677669be73afac0fc18423178d716d025e636a13b9f37c586b2",
    "identity": "698ed102c60548730f7eedc9902d4380472a654a27697b560041de4b66c719b3",
    "scaledNeg": "32978b76ead17fb3135790eeddecd355f394b16a241d5fe474b44f65a867cb2a",
    "smallS": "98f525cc78e587807df496dea11a2f48c1aee57b454b1d1829719813ca5817da",
    "wqT": "3798a68a861624c65cd64eaa506fc2aed98c03f4e580c3e05d7d9ff261df5f91",
    "wqU": "3e885f067a998e3847427d0522ad733d39b762cc58b242efeb57ccf97ba49102",
}

ORACLE_MAX_N = 100

ORACLE_SHA256 = {
    "bnm_t1": "4883eb24f6866ccf4478bf121bb9e3519bf4cdc24b39ba5afc46fe60170e7889",
    "bnm_t2": "b4bc7010bfe7dad40b29e2c783914c4922cc55509768ba04c355b704cb8f6466",
    "scfpp_smallS": "ad88c396c2ff5d559af036ae04300a994b092d3646903ab626afec332d80db0a",
    "synchronal_demo": "3b591c3bdd64d5c79b68d3169fe9b082f09625c46fd77ab6f695d517331234ba",
    "wq_t3": "142d0ca648e5a11fdd0228716439716fc062b556fbc3bdaa0fa4929410de5af3",
    "wq_t4": "7e43197bf0c5af6dfe04aaf47aa269fd6ed2c80578cde76cd5a3a7f33f9aaf55",
}

ORACLE_UNSUPPORTED = {
    "adaptive_demo": "A must be a 1x1 map for re-execution",
    "extragradient_1d": "extragradient_sffpp runs are not re-executable",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("ex_id", sorted(TRACE_CSV_SHA256))
def test_preset_trace_csv_digest(ex_id, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(run_example(ex_id), path)
    assert _sha256(path.read_bytes()) == TRACE_CSV_SHA256[ex_id]


@pytest.mark.parametrize("table", sorted(REPRODUCE_SHA256))
def test_reproduce_stdout_digest(table, capsys):
    assert main(["reproduce", table]) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode("utf-8")) == REPRODUCE_SHA256[table]


@pytest.mark.parametrize("op", sorted(VERIFY_SHA256))
def test_verify_declared_stdout_digest(op, capsys):
    assert main(["verify", op, "declared", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode("utf-8")) == VERIFY_SHA256[op]


@pytest.mark.parametrize("ex_id", sorted(ORACLE_SHA256))
def test_oracle_records_digest(ex_id):
    ex = get_example(ex_id)
    digest = hashlib.sha256()
    for start in ex.starts:
        hp = reexecute_high_precision(ex.spec, *start, config=PrecisionOracleConfig(
            digits=30, max_n=ORACLE_MAX_N))
        assert len(hp.records) == ORACLE_MAX_N + 1
        for rec in hp.records:
            digest.update(repr((rec.n, rec.x, rec.y)).encode("utf-8"))
    assert digest.hexdigest() == ORACLE_SHA256[ex_id]


@pytest.mark.parametrize("ex_id", sorted(ORACLE_UNSUPPORTED))
def test_oracle_unsupported_message(ex_id):
    ex = get_example(ex_id)
    with pytest.raises(OracleUnsupported) as info:
        reexecute_high_precision(ex.spec, *ex.starts[0])
    assert str(info.value) == ORACLE_UNSUPPORTED[ex_id]
