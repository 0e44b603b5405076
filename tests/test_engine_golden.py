"""Golden equivalence gate for the engine's evaluation order.

Pins, per (instance, config), the exact solution stream (order and eager
duplicates included), `entry_rounds` and every `RunStats.as_dict()`
counter as one short digest, and separately what the tables hold after
the run (`table.dump`: every entry's key, state, answers in insertion
order and region boundaries). A refactor of the resolution machinery or
of the answer-table representation must leave every digest unchanged; a
failure names the instance and configs.

To print both digest maps of the code under test:

    PYTHONPATH=src python tests/test_engine_golden.py
"""

import hashlib
import json

import pytest

from lintab import Engine, load_program
from lintab.bench import config_matrix, golden_instances
from lintab.table import dump


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:12]


def run_digests(program, query, opts) -> tuple[str, str]:
    """(run digest, table-dump digest) of one run."""
    eng = Engine(program, opts)
    sols = list(eng.run(query))
    record = [sols, list(eng.stats.entry_rounds.items()), eng.stats.as_dict()]
    blob = json.dumps(record, separators=(",", ":")).encode()
    return _digest(blob), _digest(dump(eng.store).encode())


def instance_digests(text, query) -> tuple[dict[str, str], dict[str, str]]:
    """Per config label: the run digests and the table-dump digests."""
    program = load_program(text)
    runs, tables = {}, {}
    for label, opts in config_matrix():
        runs[label], tables[label] = run_digests(program, query, opts)
    return runs, tables


# late-loop-under-running-cluster's digests were generated on the
# completion-stack engine: the engine before it raised TableError there.
# The eager labels of 20 instances were regenerated when a top-most eager
# pioneer stopped replaying its table to its parent without a fake loop:
# each lost only stream duplicates, answers_consumed and steps; their
# answer sets, entry_rounds and table dumps are unchanged.
# fake-loop-into-inner-top's digests were generated on the engine that
# counted fake loops, before every handing pioneer was marked directly.
GOLDEN = {
    'tcl-chain-6': {
        'lazy,semi_naive=off,early_promotion=off': 'c0e22839ecd2',
        'lazy,semi_naive=on,early_promotion=off': '6f9c3f044115',
        'lazy,semi_naive=on,early_promotion=on': 'a01668b8b8c8',
        'eager,semi_naive=off,early_promotion=off': '6e999d1b0a53',
        'eager,semi_naive=on,early_promotion=off': 'd514d9d1227c',
        'eager,semi_naive=on,early_promotion=on': 'c406e2f6d822',
    },
    'tcl-cycle-6': {
        'lazy,semi_naive=off,early_promotion=off': '2cf8a33cb0cd',
        'lazy,semi_naive=on,early_promotion=off': '5a6c1477cef0',
        'lazy,semi_naive=on,early_promotion=on': 'c412a52ad7b0',
        'eager,semi_naive=off,early_promotion=off': '01662d4a429f',
        'eager,semi_naive=on,early_promotion=off': '5c9cce3827f0',
        'eager,semi_naive=on,early_promotion=on': '6a7832a9eb8f',
    },
    'tcl-random-6': {
        'lazy,semi_naive=off,early_promotion=off': 'da4b54a93149',
        'lazy,semi_naive=on,early_promotion=off': 'ba5908b4927e',
        'lazy,semi_naive=on,early_promotion=on': '4fdb1ec0862d',
        'eager,semi_naive=off,early_promotion=off': 'e889e47d3fd3',
        'eager,semi_naive=on,early_promotion=off': '5775b4840fca',
        'eager,semi_naive=on,early_promotion=on': 'e3421fd049fd',
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
        'eager,semi_naive=off,early_promotion=off': 'c336be9da785',
        'eager,semi_naive=on,early_promotion=off': 'b61072d66487',
        'eager,semi_naive=on,early_promotion=on': '7dfcf45c33a3',
    },
    'tcr-random-6': {
        'lazy,semi_naive=off,early_promotion=off': 'ca4b9afcc79c',
        'lazy,semi_naive=on,early_promotion=off': '605297a00a4e',
        'lazy,semi_naive=on,early_promotion=on': 'a0fd5c176361',
        'eager,semi_naive=off,early_promotion=off': 'ef5657e4fbf9',
        'eager,semi_naive=on,early_promotion=off': 'c9862697d09b',
        'eager,semi_naive=on,early_promotion=on': '7c5f1b4c756d',
    },
    'tcn-chain-6': {
        'lazy,semi_naive=off,early_promotion=off': '6ba244a8484a',
        'lazy,semi_naive=on,early_promotion=off': '661371ae1ad3',
        'lazy,semi_naive=on,early_promotion=on': 'e946f5f41091',
        'eager,semi_naive=off,early_promotion=off': 'a9a14b020665',
        'eager,semi_naive=on,early_promotion=off': '7ae22594fb57',
        'eager,semi_naive=on,early_promotion=on': 'de8040d363f8',
    },
    'tcn-cycle-6': {
        'lazy,semi_naive=off,early_promotion=off': 'a62a29d8336f',
        'lazy,semi_naive=on,early_promotion=off': 'db53316fe6c8',
        'lazy,semi_naive=on,early_promotion=on': '781fa32328a2',
        'eager,semi_naive=off,early_promotion=off': '2eba7080c577',
        'eager,semi_naive=on,early_promotion=off': '59d6e56dba43',
        'eager,semi_naive=on,early_promotion=on': 'b88607abe242',
    },
    'tcn-random-6': {
        'lazy,semi_naive=off,early_promotion=off': '769156f5e3dd',
        'lazy,semi_naive=on,early_promotion=off': 'a2dc5993d762',
        'lazy,semi_naive=on,early_promotion=on': '572dd93bee19',
        'eager,semi_naive=off,early_promotion=off': '4c1394de475a',
        'eager,semi_naive=on,early_promotion=off': '17c0254f71e0',
        'eager,semi_naive=on,early_promotion=on': 'ab1713a22bd3',
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
        'eager,semi_naive=off,early_promotion=off': '093169c5e0bc',
        'eager,semi_naive=on,early_promotion=off': 'd2dff319ee9d',
        'eager,semi_naive=on,early_promotion=on': 'dead05ae3f8d',
    },
    'sg-random-6': {
        'lazy,semi_naive=off,early_promotion=off': '4ba75bed616d',
        'lazy,semi_naive=on,early_promotion=off': 'bb366680e046',
        'lazy,semi_naive=on,early_promotion=on': '011a6f56c7da',
        'eager,semi_naive=off,early_promotion=off': 'fea89c156e50',
        'eager,semi_naive=on,early_promotion=off': 'd2d854df13dc',
        'eager,semi_naive=on,early_promotion=on': '51081856e764',
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
        'eager,semi_naive=off,early_promotion=off': '1f4f9973ec12',
        'eager,semi_naive=on,early_promotion=off': '5bb31b73676e',
        'eager,semi_naive=on,early_promotion=on': 'd4115ec316f4',
    },
    'sg-random-12': {
        'lazy,semi_naive=off,early_promotion=off': '30d56e4b750d',
        'lazy,semi_naive=on,early_promotion=off': 'a763fa506422',
        'lazy,semi_naive=on,early_promotion=on': 'fe87e4efd3d6',
        'eager,semi_naive=off,early_promotion=off': 'a3e087cd3082',
        'eager,semi_naive=on,early_promotion=off': 'b39bc354c01a',
        'eager,semi_naive=on,early_promotion=on': 'e8bd10bf2171',
    },
    'regex-warren-20': {
        'lazy,semi_naive=off,early_promotion=off': '4597254824f1',
        'lazy,semi_naive=on,early_promotion=off': '9a9dbcedcd78',
        'lazy,semi_naive=on,early_promotion=on': '2ce75c6fe06d',
        'eager,semi_naive=off,early_promotion=off': '0716453d5b83',
        'eager,semi_naive=on,early_promotion=off': '66442867a974',
        'eager,semi_naive=on,early_promotion=on': '788f9d2d4ca0',
    },
    'regex-warren-nontabled-20': {
        'lazy,semi_naive=off,early_promotion=off': 'de31ca7fde06',
        'lazy,semi_naive=on,early_promotion=off': '36467692ce6b',
        'lazy,semi_naive=on,early_promotion=on': '36467692ce6b',
        'eager,semi_naive=off,early_promotion=off': '02376333b4c9',
        'eager,semi_naive=on,early_promotion=off': 'cdb120595894',
        'eager,semi_naive=on,early_promotion=on': 'cdb120595894',
    },
    'left-recursive-tc': {
        'lazy,semi_naive=off,early_promotion=off': 'b9b1adc9a1a2',
        'lazy,semi_naive=on,early_promotion=off': 'f0cb42f29e15',
        'lazy,semi_naive=on,early_promotion=on': '487d91b4684d',
        'eager,semi_naive=off,early_promotion=off': '6beb9d1f1608',
        'eager,semi_naive=on,early_promotion=off': '42b334896171',
        'eager,semi_naive=on,early_promotion=on': '223cbb880746',
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
        'eager,semi_naive=off,early_promotion=off': 'dbcad5be9040',
        'eager,semi_naive=on,early_promotion=off': 'ea766605c812',
        'eager,semi_naive=on,early_promotion=on': '054123909b43',
    },
    'fresh-subgoal-guard-reordered': {
        'lazy,semi_naive=off,early_promotion=off': '6a3cb2e6a877',
        'lazy,semi_naive=on,early_promotion=off': '16044006056f',
        'lazy,semi_naive=on,early_promotion=on': 'b8820bedc908',
        'eager,semi_naive=off,early_promotion=off': '5f338fe6599b',
        'eager,semi_naive=on,early_promotion=off': '3f8285c82e29',
        'eager,semi_naive=on,early_promotion=on': '7a0fbfa8bd36',
    },
    'self-feeding-pair': {
        'lazy,semi_naive=off,early_promotion=off': '160da01ce6eb',
        'lazy,semi_naive=on,early_promotion=off': '881e30bfe8c9',
        'lazy,semi_naive=on,early_promotion=on': '4cfbcaf354b3',
        'eager,semi_naive=off,early_promotion=off': 'a58577998920',
        'eager,semi_naive=on,early_promotion=off': '4cfbcaf354b3',
        'eager,semi_naive=on,early_promotion=on': '91bb513c4f85',
    },
    'helper-routed-tc-point': {
        'lazy,semi_naive=off,early_promotion=off': '5fcf9f211981',
        'lazy,semi_naive=on,early_promotion=off': '09fcdbe8a3c8',
        'lazy,semi_naive=on,early_promotion=on': '081f843244b3',
        'eager,semi_naive=off,early_promotion=off': 'e8cf8f9c9058',
        'eager,semi_naive=on,early_promotion=off': '8a241c9d0fc0',
        'eager,semi_naive=on,early_promotion=on': 'e75002875330',
    },
    'helper-routed-tc-open': {
        'lazy,semi_naive=off,early_promotion=off': '2e83aa562d3a',
        'lazy,semi_naive=on,early_promotion=off': '85661d6e186f',
        'lazy,semi_naive=on,early_promotion=on': '2dd95daf88e3',
        'eager,semi_naive=off,early_promotion=off': '6d1a8c33d826',
        'eager,semi_naive=on,early_promotion=off': '159c268afd74',
        'eager,semi_naive=on,early_promotion=on': '9958c6d97486',
    },
    'late-loop-under-running-cluster': {
        'lazy,semi_naive=off,early_promotion=off': '7cdf6cfb9206',
        'lazy,semi_naive=on,early_promotion=off': 'a2bd0b893196',
        'lazy,semi_naive=on,early_promotion=on': '1d492de1e9a5',
        'eager,semi_naive=off,early_promotion=off': '7cdf6cfb9206',
        'eager,semi_naive=on,early_promotion=off': 'a2bd0b893196',
        'eager,semi_naive=on,early_promotion=on': '1d492de1e9a5',
    },
    'fake-loop-into-inner-top': {
        'lazy,semi_naive=off,early_promotion=off': '30a10a32b2f3',
        'lazy,semi_naive=on,early_promotion=off': '978b33778f86',
        'lazy,semi_naive=on,early_promotion=on': 'c01142532cbe',
        'eager,semi_naive=off,early_promotion=off': '30a10a32b2f3',
        'eager,semi_naive=on,early_promotion=off': '978b33778f86',
        'eager,semi_naive=on,early_promotion=on': 'c01142532cbe',
    },
}


# table.dump digests, generated on the engine that stored full answer terms
# (those of late-loop-under-running-cluster on the completion-stack engine:
# the engine before it raised TableError on that program)
TABLE_GOLDEN = {
    'tcl-chain-6': {
        'lazy,semi_naive=off,early_promotion=off': '5ed24e99c255',
        'lazy,semi_naive=on,early_promotion=off': '5ed24e99c255',
        'lazy,semi_naive=on,early_promotion=on': '3cf3ccb6c3bc',
        'eager,semi_naive=off,early_promotion=off': '5ed24e99c255',
        'eager,semi_naive=on,early_promotion=off': '5ed24e99c255',
        'eager,semi_naive=on,early_promotion=on': '3cf3ccb6c3bc',
    },
    'tcl-cycle-6': {
        'lazy,semi_naive=off,early_promotion=off': '43a8b58ad94c',
        'lazy,semi_naive=on,early_promotion=off': '43a8b58ad94c',
        'lazy,semi_naive=on,early_promotion=on': 'a5e573f04c77',
        'eager,semi_naive=off,early_promotion=off': '43a8b58ad94c',
        'eager,semi_naive=on,early_promotion=off': '43a8b58ad94c',
        'eager,semi_naive=on,early_promotion=on': 'a5e573f04c77',
    },
    'tcl-random-6': {
        'lazy,semi_naive=off,early_promotion=off': 'ff95efe2dc3a',
        'lazy,semi_naive=on,early_promotion=off': 'ff95efe2dc3a',
        'lazy,semi_naive=on,early_promotion=on': 'b1ebbb789251',
        'eager,semi_naive=off,early_promotion=off': 'ff95efe2dc3a',
        'eager,semi_naive=on,early_promotion=off': 'ff95efe2dc3a',
        'eager,semi_naive=on,early_promotion=on': 'b1ebbb789251',
    },
    'tcr-chain-6': {
        'lazy,semi_naive=off,early_promotion=off': '7ec95ad940fb',
        'lazy,semi_naive=on,early_promotion=off': '7ec95ad940fb',
        'lazy,semi_naive=on,early_promotion=on': '7ec95ad940fb',
        'eager,semi_naive=off,early_promotion=off': '7ec95ad940fb',
        'eager,semi_naive=on,early_promotion=off': '7ec95ad940fb',
        'eager,semi_naive=on,early_promotion=on': '7ec95ad940fb',
    },
    'tcr-cycle-6': {
        'lazy,semi_naive=off,early_promotion=off': '12edfec6a7bb',
        'lazy,semi_naive=on,early_promotion=off': '12edfec6a7bb',
        'lazy,semi_naive=on,early_promotion=on': '12edfec6a7bb',
        'eager,semi_naive=off,early_promotion=off': '56ec955ad1d5',
        'eager,semi_naive=on,early_promotion=off': '56ec955ad1d5',
        'eager,semi_naive=on,early_promotion=on': 'b75a140f2c03',
    },
    'tcr-random-6': {
        'lazy,semi_naive=off,early_promotion=off': '942105b69cfd',
        'lazy,semi_naive=on,early_promotion=off': '942105b69cfd',
        'lazy,semi_naive=on,early_promotion=on': '0a222d1038ac',
        'eager,semi_naive=off,early_promotion=off': '98738c05df33',
        'eager,semi_naive=on,early_promotion=off': '98738c05df33',
        'eager,semi_naive=on,early_promotion=on': '5620c719bff5',
    },
    'tcn-chain-6': {
        'lazy,semi_naive=off,early_promotion=off': '4491202cfafc',
        'lazy,semi_naive=on,early_promotion=off': '4491202cfafc',
        'lazy,semi_naive=on,early_promotion=on': 'c29161ef66e3',
        'eager,semi_naive=off,early_promotion=off': '4491202cfafc',
        'eager,semi_naive=on,early_promotion=off': '4491202cfafc',
        'eager,semi_naive=on,early_promotion=on': 'c29161ef66e3',
    },
    'tcn-cycle-6': {
        'lazy,semi_naive=off,early_promotion=off': '63d761c4ca05',
        'lazy,semi_naive=on,early_promotion=off': '63d761c4ca05',
        'lazy,semi_naive=on,early_promotion=on': '218590d58be0',
        'eager,semi_naive=off,early_promotion=off': '63d761c4ca05',
        'eager,semi_naive=on,early_promotion=off': '63d761c4ca05',
        'eager,semi_naive=on,early_promotion=on': '7e7adf98a2d0',
    },
    'tcn-random-6': {
        'lazy,semi_naive=off,early_promotion=off': '658b286f3949',
        'lazy,semi_naive=on,early_promotion=off': '658b286f3949',
        'lazy,semi_naive=on,early_promotion=on': '663d03d8cba0',
        'eager,semi_naive=off,early_promotion=off': '658b286f3949',
        'eager,semi_naive=on,early_promotion=off': '658b286f3949',
        'eager,semi_naive=on,early_promotion=on': 'e76f716eceb7',
    },
    'sg-chain-6': {
        'lazy,semi_naive=off,early_promotion=off': '97a661efee08',
        'lazy,semi_naive=on,early_promotion=off': '97a661efee08',
        'lazy,semi_naive=on,early_promotion=on': '97a661efee08',
        'eager,semi_naive=off,early_promotion=off': '97a661efee08',
        'eager,semi_naive=on,early_promotion=off': '97a661efee08',
        'eager,semi_naive=on,early_promotion=on': '97a661efee08',
    },
    'sg-cycle-6': {
        'lazy,semi_naive=off,early_promotion=off': 'aa2e6ecdb9aa',
        'lazy,semi_naive=on,early_promotion=off': 'aa2e6ecdb9aa',
        'lazy,semi_naive=on,early_promotion=on': '09206bedf289',
        'eager,semi_naive=off,early_promotion=off': 'aa2e6ecdb9aa',
        'eager,semi_naive=on,early_promotion=off': 'aa2e6ecdb9aa',
        'eager,semi_naive=on,early_promotion=on': '09206bedf289',
    },
    'sg-random-6': {
        'lazy,semi_naive=off,early_promotion=off': 'f2c5e94ac520',
        'lazy,semi_naive=on,early_promotion=off': 'f2c5e94ac520',
        'lazy,semi_naive=on,early_promotion=on': '3ffbb7fcb9e6',
        'eager,semi_naive=off,early_promotion=off': 'aa8df43903b8',
        'eager,semi_naive=on,early_promotion=off': 'aa8df43903b8',
        'eager,semi_naive=on,early_promotion=on': '544be4f5f965',
    },
    'sg-chain-12': {
        'lazy,semi_naive=off,early_promotion=off': '406898ba1164',
        'lazy,semi_naive=on,early_promotion=off': '406898ba1164',
        'lazy,semi_naive=on,early_promotion=on': '406898ba1164',
        'eager,semi_naive=off,early_promotion=off': '406898ba1164',
        'eager,semi_naive=on,early_promotion=off': '406898ba1164',
        'eager,semi_naive=on,early_promotion=on': '406898ba1164',
    },
    'sg-cycle-12': {
        'lazy,semi_naive=off,early_promotion=off': 'b3fbaa6e3780',
        'lazy,semi_naive=on,early_promotion=off': 'b3fbaa6e3780',
        'lazy,semi_naive=on,early_promotion=on': '6ddb55ba1288',
        'eager,semi_naive=off,early_promotion=off': 'b3fbaa6e3780',
        'eager,semi_naive=on,early_promotion=off': 'b3fbaa6e3780',
        'eager,semi_naive=on,early_promotion=on': '6ddb55ba1288',
    },
    'sg-random-12': {
        'lazy,semi_naive=off,early_promotion=off': '2f17277a7ef5',
        'lazy,semi_naive=on,early_promotion=off': '2f17277a7ef5',
        'lazy,semi_naive=on,early_promotion=on': 'd5bf8d71318a',
        'eager,semi_naive=off,early_promotion=off': 'dacda77f7b34',
        'eager,semi_naive=on,early_promotion=off': 'dacda77f7b34',
        'eager,semi_naive=on,early_promotion=on': 'edc47ba403cc',
    },
    'regex-warren-20': {
        'lazy,semi_naive=off,early_promotion=off': 'e6f44278ec74',
        'lazy,semi_naive=on,early_promotion=off': 'e6f44278ec74',
        'lazy,semi_naive=on,early_promotion=on': 'a8e23935e9f0',
        'eager,semi_naive=off,early_promotion=off': 'e6f44278ec74',
        'eager,semi_naive=on,early_promotion=off': 'e6f44278ec74',
        'eager,semi_naive=on,early_promotion=on': 'a8e23935e9f0',
    },
    'regex-warren-nontabled-20': {
        'lazy,semi_naive=off,early_promotion=off': 'e6f44278ec74',
        'lazy,semi_naive=on,early_promotion=off': 'e6f44278ec74',
        'lazy,semi_naive=on,early_promotion=on': 'a8e23935e9f0',
        'eager,semi_naive=off,early_promotion=off': 'e6f44278ec74',
        'eager,semi_naive=on,early_promotion=off': 'e6f44278ec74',
        'eager,semi_naive=on,early_promotion=on': 'a8e23935e9f0',
    },
    'left-recursive-tc': {
        'lazy,semi_naive=off,early_promotion=off': '46ccd2f01129',
        'lazy,semi_naive=on,early_promotion=off': '46ccd2f01129',
        'lazy,semi_naive=on,early_promotion=on': 'd2d9da07f757',
        'eager,semi_naive=off,early_promotion=off': '46ccd2f01129',
        'eager,semi_naive=on,early_promotion=off': '46ccd2f01129',
        'eager,semi_naive=on,early_promotion=on': 'd2d9da07f757',
    },
    'two-fact-self-join': {
        'lazy,semi_naive=off,early_promotion=off': '7f30d2be0e7e',
        'lazy,semi_naive=on,early_promotion=off': '7f30d2be0e7e',
        'lazy,semi_naive=on,early_promotion=on': '7f30d2be0e7e',
        'eager,semi_naive=off,early_promotion=off': '0412d2906dc2',
        'eager,semi_naive=on,early_promotion=off': '0412d2906dc2',
        'eager,semi_naive=on,early_promotion=on': 'f8251a63c012',
    },
    'fresh-subgoal-guard': {
        'lazy,semi_naive=off,early_promotion=off': '69d16e467d15',
        'lazy,semi_naive=on,early_promotion=off': '69d16e467d15',
        'lazy,semi_naive=on,early_promotion=on': '69d16e467d15',
        'eager,semi_naive=off,early_promotion=off': '69d16e467d15',
        'eager,semi_naive=on,early_promotion=off': '69d16e467d15',
        'eager,semi_naive=on,early_promotion=on': '414223341665',
    },
    'fresh-subgoal-guard-reordered': {
        'lazy,semi_naive=off,early_promotion=off': '6582596e1b5a',
        'lazy,semi_naive=on,early_promotion=off': '6582596e1b5a',
        'lazy,semi_naive=on,early_promotion=on': '69d16e467d15',
        'eager,semi_naive=off,early_promotion=off': '6582596e1b5a',
        'eager,semi_naive=on,early_promotion=off': '6582596e1b5a',
        'eager,semi_naive=on,early_promotion=on': '69d16e467d15',
    },
    'self-feeding-pair': {
        'lazy,semi_naive=off,early_promotion=off': '218b12bb24ad',
        'lazy,semi_naive=on,early_promotion=off': '218b12bb24ad',
        'lazy,semi_naive=on,early_promotion=on': '330e87229586',
        'eager,semi_naive=off,early_promotion=off': '218b12bb24ad',
        'eager,semi_naive=on,early_promotion=off': '218b12bb24ad',
        'eager,semi_naive=on,early_promotion=on': '330e87229586',
    },
    'helper-routed-tc-point': {
        'lazy,semi_naive=off,early_promotion=off': 'c1a82ac23585',
        'lazy,semi_naive=on,early_promotion=off': 'c1a82ac23585',
        'lazy,semi_naive=on,early_promotion=on': '3216b5835e0b',
        'eager,semi_naive=off,early_promotion=off': 'c1a82ac23585',
        'eager,semi_naive=on,early_promotion=off': 'c1a82ac23585',
        'eager,semi_naive=on,early_promotion=on': '886126ac11a4',
    },
    'helper-routed-tc-open': {
        'lazy,semi_naive=off,early_promotion=off': '5396b448185c',
        'lazy,semi_naive=on,early_promotion=off': '5396b448185c',
        'lazy,semi_naive=on,early_promotion=on': 'dacbe0a718e7',
        'eager,semi_naive=off,early_promotion=off': '5396b448185c',
        'eager,semi_naive=on,early_promotion=off': '5396b448185c',
        'eager,semi_naive=on,early_promotion=on': '96737347cd3e',
    },
    'late-loop-under-running-cluster': {
        'lazy,semi_naive=off,early_promotion=off': '5a0aa4a675d7',
        'lazy,semi_naive=on,early_promotion=off': '5a0aa4a675d7',
        'lazy,semi_naive=on,early_promotion=on': 'cbe531015d17',
        'eager,semi_naive=off,early_promotion=off': '5a0aa4a675d7',
        'eager,semi_naive=on,early_promotion=off': '5a0aa4a675d7',
        'eager,semi_naive=on,early_promotion=on': 'cbe531015d17',
    },
    'fake-loop-into-inner-top': {
        'lazy,semi_naive=off,early_promotion=off': '6afef63e0764',
        'lazy,semi_naive=on,early_promotion=off': '6afef63e0764',
        'lazy,semi_naive=on,early_promotion=on': 'fa16003d172e',
        'eager,semi_naive=off,early_promotion=off': '6afef63e0764',
        'eager,semi_naive=on,early_promotion=off': '6afef63e0764',
        'eager,semi_naive=on,early_promotion=on': 'fa16003d172e',
    },
}


INSTANCES = golden_instances()


def _assert_same(name, got, want):
    bad = [f"{name} [{label}]" for label in want if got.get(label) != want[label]]
    assert got.keys() == want.keys()
    assert not bad, "digest changed: " + "; ".join(bad)


@pytest.mark.parametrize("name,text,query", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_engine_digests_unchanged(name, text, query):
    _assert_same(name, instance_digests(text, query)[0], GOLDEN[name])


@pytest.mark.parametrize("name,text,query", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_table_dump_digests_unchanged(name, text, query):
    _assert_same(name, instance_digests(text, query)[1], TABLE_GOLDEN[name])


if __name__ == "__main__":
    digests = [(name, instance_digests(text, query)) for name, text, query in INSTANCES]
    for title, which in (("GOLDEN", 0), ("TABLE_GOLDEN", 1)):
        print(f"{title} = {{")
        for name, maps in digests:
            print(f"    {name!r}: {{")
            for label, d in maps[which].items():
                print(f"        {label!r}: {d!r},")
            print("    },")
        print("}")
