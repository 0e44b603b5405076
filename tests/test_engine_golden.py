"""Golden equivalence gate for the engine's evaluation order.

Pins, per (instance, config), the exact solution stream (order and eager
duplicates included), `entry_rounds` and every `RunStats.as_dict()`
counter as one short digest. A refactor of the resolution machinery must
leave every digest unchanged; a failure names the instance and configs.

To print the digests of the code under test:

    PYTHONPATH=src python tests/test_engine_golden.py
"""

import hashlib
import json

import pytest

from lintab import Engine, load_program
from lintab.bench import config_matrix, suite_instances

SEED = 0


def golden_instances():
    out = []
    for suite in ("tcl", "tcr", "tcn", "sg"):
        out += suite_instances(suite, [6], SEED)
    out += suite_instances("sg", [12], SEED)
    out += suite_instances("regex-warren", [20], SEED)
    out += suite_instances("regex-warren-nontabled", [20], SEED)
    out += suite_instances("paper-examples", [], SEED)
    return out


def run_digest(program, query, opts) -> str:
    eng = Engine(program, opts)
    sols = list(eng.run(query))
    record = [sols, list(eng.stats.entry_rounds.items()), eng.stats.as_dict()]
    blob = json.dumps(record, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def instance_digests(text, query) -> dict[str, str]:
    program = load_program(text)
    return {label: run_digest(program, query, opts) for label, opts in config_matrix()}


GOLDEN = {
    'tcl-chain-6': {
        'lazy,semi_naive=off,early_promotion=off': 'c0e22839ecd2',
        'lazy,semi_naive=on,early_promotion=off': '6f9c3f044115',
        'lazy,semi_naive=on,early_promotion=on': 'a01668b8b8c8',
        'eager,semi_naive=off,early_promotion=off': '0c216b2698c3',
        'eager,semi_naive=on,early_promotion=off': '27f63c5632fb',
        'eager,semi_naive=on,early_promotion=on': '2fdf0aae23e8',
    },
    'tcl-cycle-6': {
        'lazy,semi_naive=off,early_promotion=off': '2cf8a33cb0cd',
        'lazy,semi_naive=on,early_promotion=off': '5a6c1477cef0',
        'lazy,semi_naive=on,early_promotion=on': 'c412a52ad7b0',
        'eager,semi_naive=off,early_promotion=off': 'ba7b63c38b1d',
        'eager,semi_naive=on,early_promotion=off': '68582011680f',
        'eager,semi_naive=on,early_promotion=on': 'acfec99aa2a1',
    },
    'tcl-random-6': {
        'lazy,semi_naive=off,early_promotion=off': 'da4b54a93149',
        'lazy,semi_naive=on,early_promotion=off': 'ba5908b4927e',
        'lazy,semi_naive=on,early_promotion=on': '4fdb1ec0862d',
        'eager,semi_naive=off,early_promotion=off': '15f571bfa03a',
        'eager,semi_naive=on,early_promotion=off': 'f04c1bd2027a',
        'eager,semi_naive=on,early_promotion=on': '87224da46dbb',
    },
    'tcr-chain-6': {
        'lazy,semi_naive=off,early_promotion=off': '1d85834db55e',
        'lazy,semi_naive=on,early_promotion=off': '1d85834db55e',
        'lazy,semi_naive=on,early_promotion=on': '1d85834db55e',
        'eager,semi_naive=off,early_promotion=off': '8dc4e0be8631',
        'eager,semi_naive=on,early_promotion=off': '8dc4e0be8631',
        'eager,semi_naive=on,early_promotion=on': '8dc4e0be8631',
    },
    'tcr-cycle-6': {
        'lazy,semi_naive=off,early_promotion=off': 'bedc21ae8471',
        'lazy,semi_naive=on,early_promotion=off': 'd1237d6deaa0',
        'lazy,semi_naive=on,early_promotion=on': '2e4db8b13ee7',
        'eager,semi_naive=off,early_promotion=off': '28444ecfd68b',
        'eager,semi_naive=on,early_promotion=off': '889f996eeb03',
        'eager,semi_naive=on,early_promotion=on': 'b61072d66487',
    },
    'tcr-random-6': {
        'lazy,semi_naive=off,early_promotion=off': 'ca4b9afcc79c',
        'lazy,semi_naive=on,early_promotion=off': '605297a00a4e',
        'lazy,semi_naive=on,early_promotion=on': 'a0fd5c176361',
        'eager,semi_naive=off,early_promotion=off': 'f0fb78e7f74d',
        'eager,semi_naive=on,early_promotion=off': 'cfe725f1fd2d',
        'eager,semi_naive=on,early_promotion=on': '0cee31e666d4',
    },
    'tcn-chain-6': {
        'lazy,semi_naive=off,early_promotion=off': '6ba244a8484a',
        'lazy,semi_naive=on,early_promotion=off': '661371ae1ad3',
        'lazy,semi_naive=on,early_promotion=on': 'e946f5f41091',
        'eager,semi_naive=off,early_promotion=off': '214e02a9299b',
        'eager,semi_naive=on,early_promotion=off': '14df3eb75a04',
        'eager,semi_naive=on,early_promotion=on': 'ebcac1635144',
    },
    'tcn-cycle-6': {
        'lazy,semi_naive=off,early_promotion=off': 'a62a29d8336f',
        'lazy,semi_naive=on,early_promotion=off': 'db53316fe6c8',
        'lazy,semi_naive=on,early_promotion=on': '781fa32328a2',
        'eager,semi_naive=off,early_promotion=off': '69105c57e411',
        'eager,semi_naive=on,early_promotion=off': '985d0efeaf69',
        'eager,semi_naive=on,early_promotion=on': 'b817052d0da4',
    },
    'tcn-random-6': {
        'lazy,semi_naive=off,early_promotion=off': '769156f5e3dd',
        'lazy,semi_naive=on,early_promotion=off': 'a2dc5993d762',
        'lazy,semi_naive=on,early_promotion=on': '572dd93bee19',
        'eager,semi_naive=off,early_promotion=off': '7dccef74da18',
        'eager,semi_naive=on,early_promotion=off': '9a1580e8ca72',
        'eager,semi_naive=on,early_promotion=on': 'ca60ae015a91',
    },
    'sg-chain-6': {
        'lazy,semi_naive=off,early_promotion=off': '80873bdc0662',
        'lazy,semi_naive=on,early_promotion=off': '80873bdc0662',
        'lazy,semi_naive=on,early_promotion=on': '80873bdc0662',
        'eager,semi_naive=off,early_promotion=off': 'e9991e691bcd',
        'eager,semi_naive=on,early_promotion=off': 'e9991e691bcd',
        'eager,semi_naive=on,early_promotion=on': 'e9991e691bcd',
    },
    'sg-cycle-6': {
        'lazy,semi_naive=off,early_promotion=off': '218a0ef13098',
        'lazy,semi_naive=on,early_promotion=off': 'c68dcb098bff',
        'lazy,semi_naive=on,early_promotion=on': 'e95af78ce581',
        'eager,semi_naive=off,early_promotion=off': 'bae41c13e605',
        'eager,semi_naive=on,early_promotion=off': '1669f38e2e27',
        'eager,semi_naive=on,early_promotion=on': 'd2dff319ee9d',
    },
    'sg-random-6': {
        'lazy,semi_naive=off,early_promotion=off': '4ba75bed616d',
        'lazy,semi_naive=on,early_promotion=off': 'bb366680e046',
        'lazy,semi_naive=on,early_promotion=on': '011a6f56c7da',
        'eager,semi_naive=off,early_promotion=off': 'fc0dce94c569',
        'eager,semi_naive=on,early_promotion=off': '828567bc05d8',
        'eager,semi_naive=on,early_promotion=on': 'f1d51412ad29',
    },
    'sg-chain-12': {
        'lazy,semi_naive=off,early_promotion=off': 'b2fffea60173',
        'lazy,semi_naive=on,early_promotion=off': 'b2fffea60173',
        'lazy,semi_naive=on,early_promotion=on': 'b2fffea60173',
        'eager,semi_naive=off,early_promotion=off': '1d76b8258302',
        'eager,semi_naive=on,early_promotion=off': '1d76b8258302',
        'eager,semi_naive=on,early_promotion=on': '1d76b8258302',
    },
    'sg-cycle-12': {
        'lazy,semi_naive=off,early_promotion=off': '175fdcb23a09',
        'lazy,semi_naive=on,early_promotion=off': '62dce28b9314',
        'lazy,semi_naive=on,early_promotion=on': 'af88058a0f96',
        'eager,semi_naive=off,early_promotion=off': '5e91e0ca67fe',
        'eager,semi_naive=on,early_promotion=off': '405e2d52e878',
        'eager,semi_naive=on,early_promotion=on': '5bb31b73676e',
    },
    'sg-random-12': {
        'lazy,semi_naive=off,early_promotion=off': '30d56e4b750d',
        'lazy,semi_naive=on,early_promotion=off': 'a763fa506422',
        'lazy,semi_naive=on,early_promotion=on': 'fe87e4efd3d6',
        'eager,semi_naive=off,early_promotion=off': '99142b0b56c3',
        'eager,semi_naive=on,early_promotion=off': '70c454c002bf',
        'eager,semi_naive=on,early_promotion=on': '3428f7285336',
    },
    'regex-warren-20': {
        'lazy,semi_naive=off,early_promotion=off': '4597254824f1',
        'lazy,semi_naive=on,early_promotion=off': '9a9dbcedcd78',
        'lazy,semi_naive=on,early_promotion=on': '2ce75c6fe06d',
        'eager,semi_naive=off,early_promotion=off': 'efae89588389',
        'eager,semi_naive=on,early_promotion=off': '5e5b2731d9d6',
        'eager,semi_naive=on,early_promotion=on': '17d547b9a9a5',
    },
    'regex-warren-nontabled-20': {
        'lazy,semi_naive=off,early_promotion=off': 'de31ca7fde06',
        'lazy,semi_naive=on,early_promotion=off': '36467692ce6b',
        'lazy,semi_naive=on,early_promotion=on': '36467692ce6b',
        'eager,semi_naive=off,early_promotion=off': 'b551368c7294',
        'eager,semi_naive=on,early_promotion=off': '3510ab9b1e05',
        'eager,semi_naive=on,early_promotion=on': '3510ab9b1e05',
    },
    'left-recursive-tc': {
        'lazy,semi_naive=off,early_promotion=off': 'b9b1adc9a1a2',
        'lazy,semi_naive=on,early_promotion=off': 'f0cb42f29e15',
        'lazy,semi_naive=on,early_promotion=on': '487d91b4684d',
        'eager,semi_naive=off,early_promotion=off': 'c1d615c1b19d',
        'eager,semi_naive=on,early_promotion=off': '06875729e59b',
        'eager,semi_naive=on,early_promotion=on': 'b6363d13642e',
    },
    'two-fact-self-join': {
        'lazy,semi_naive=off,early_promotion=off': 'e19ab4b0d956',
        'lazy,semi_naive=on,early_promotion=off': 'e19ab4b0d956',
        'lazy,semi_naive=on,early_promotion=on': 'e19ab4b0d956',
        'eager,semi_naive=off,early_promotion=off': 'b40068e1517f',
        'eager,semi_naive=on,early_promotion=off': '5ff835e15dc2',
        'eager,semi_naive=on,early_promotion=on': '5ff835e15dc2',
    },
    'fresh-subgoal-guard': {
        'lazy,semi_naive=off,early_promotion=off': '4fd189e7c2ed',
        'lazy,semi_naive=on,early_promotion=off': '6b32a2f5a4f6',
        'lazy,semi_naive=on,early_promotion=on': '6b32a2f5a4f6',
        'eager,semi_naive=off,early_promotion=off': '4420c228cb6d',
        'eager,semi_naive=on,early_promotion=off': '6ca8ca499726',
        'eager,semi_naive=on,early_promotion=on': '02be645b894b',
    },
    'fresh-subgoal-guard-reordered': {
        'lazy,semi_naive=off,early_promotion=off': '6a3cb2e6a877',
        'lazy,semi_naive=on,early_promotion=off': '16044006056f',
        'lazy,semi_naive=on,early_promotion=on': 'b8820bedc908',
        'eager,semi_naive=off,early_promotion=off': '3dae97fbd18b',
        'eager,semi_naive=on,early_promotion=off': '967d40077f10',
        'eager,semi_naive=on,early_promotion=on': 'e9fce68de6d6',
    },
    'self-feeding-pair': {
        'lazy,semi_naive=off,early_promotion=off': '160da01ce6eb',
        'lazy,semi_naive=on,early_promotion=off': '881e30bfe8c9',
        'lazy,semi_naive=on,early_promotion=on': '4cfbcaf354b3',
        'eager,semi_naive=off,early_promotion=off': '741f91faa25f',
        'eager,semi_naive=on,early_promotion=off': '66a3749fdcf8',
        'eager,semi_naive=on,early_promotion=on': 'fc91b33190fd',
    },
    'helper-routed-tc-point': {
        'lazy,semi_naive=off,early_promotion=off': '5fcf9f211981',
        'lazy,semi_naive=on,early_promotion=off': '09fcdbe8a3c8',
        'lazy,semi_naive=on,early_promotion=on': '081f843244b3',
        'eager,semi_naive=off,early_promotion=off': '6f31e9fcd089',
        'eager,semi_naive=on,early_promotion=off': '164ac25d322f',
        'eager,semi_naive=on,early_promotion=on': 'd8932d51e94d',
    },
    'helper-routed-tc-open': {
        'lazy,semi_naive=off,early_promotion=off': '2e83aa562d3a',
        'lazy,semi_naive=on,early_promotion=off': '85661d6e186f',
        'lazy,semi_naive=on,early_promotion=on': '2dd95daf88e3',
        'eager,semi_naive=off,early_promotion=off': '01e73527152e',
        'eager,semi_naive=on,early_promotion=off': 'c5fe8d599a3b',
        'eager,semi_naive=on,early_promotion=on': '871e3580dada',
    },
}


INSTANCES = golden_instances()


@pytest.mark.parametrize("name,text,query", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_engine_digests_unchanged(name, text, query):
    got = instance_digests(text, query)
    want = GOLDEN[name]
    bad = [f"{name} [{label}]" for label in want if got.get(label) != want[label]]
    assert got.keys() == want.keys()
    assert not bad, "digest changed: " + "; ".join(bad)


if __name__ == "__main__":
    for name, text, query in INSTANCES:
        print(f"    {name!r}: {{")
        for label, d in instance_digests(text, query).items():
            print(f"        {label!r}: {d!r},")
        print("    },")
