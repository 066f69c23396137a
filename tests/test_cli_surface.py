"""Pins the command-line surface of ``repro`` and ``python -m repro.experiments``.

Every subcommand's options are walked from the live parsers and compared
with the table below: option strings, ``dest``, default, choices,
``nargs``, required and ``const``.  A refactor of the option wiring must
leave this table unchanged; adding, renaming or re-defaulting an option
is a deliberate edit here.
"""

import argparse

import pytest

from repro import cli
from repro.experiments import runner

_WORKLOADS = (
    "bfs", "gups", "histogram", "implicit_dma", "implicit_scratchpad",
    "implicit_stash", "matmul_tiled", "pointer_chase", "reduction", "spmv",
    "stencil", "streaming", "transpose", "uts", "utsd",
)

# subcommand path -> (flags, dest, default, choices, nargs, required, const)
SURFACE = {
    '': [
        ('', 'command', None,
         ('list', 'table51', 'sweep', 'campaign', 'worker', 'cache', 'run', 'trace',
          'telemetry', 'report'),
         'A...', True, None),
    ],
    'cache': [
        ('', 'cache_command', None, ('info', 'verify', 'prune'), 'A...', True, None),
    ],
    'cache info': [
        ('', 'dir', None, None, None, True, None),
        ('--json', 'as_json', False, None, 0, False, True),
    ],
    'cache prune': [
        ('', 'dir', None, None, None, True, None),
        ('--json', 'as_json', False, None, 0, False, True),
        ('--tmp-age', 'tmp_age', 3600.0, None, None, False, None),
    ],
    'cache verify': [
        ('', 'dir', None, None, None, True, None),
        ('--json', 'as_json', False, None, 0, False, True),
    ],
    'campaign': [
        ('--cache', 'cache', None, None, None, False, None),
        ('--db', 'db', None, None, None, False, None),
        ('--fast', 'fast', False, None, 0, False, True),
        ('--format', 'fmt', 'text', ('text', 'json', 'csv'), None, False, None),
        ('--hierarchies', 'hierarchies', None, None, None, False, None),
        ('--jobs', 'jobs', 1, None, None, False, None),
        ('--lease-expiry', 'lease_expiry', 300.0, None, None, False, None),
        ('--out', 'out', None, None, None, False, None),
        ('--plan', 'plan', None, None, '?', False, ''),
        ('--protocols', 'protocols', None, None, None, False, None),
        ('--queue', 'queue', None, None, None, False, None),
        ('--quiet', 'quiet', False, None, 0, False, True),
        ('--sample-every', 'sample_every', 5000, None, None, False, None),
        ('--spec', 'spec', None, None, None, False, None),
        ('--telemetry', 'telemetry', None, None, None, False, None),
        ('--timeline', 'timeline', None, None, None, False, None),
        ('--workers', 'workers', 0, None, None, False, None),
        ('--workloads', 'workloads', None, None, None, False, None),
    ],
    'list': [
    ],
    'python -m repro.experiments': [
        ('', 'experiments', None, None, '*', True, None),
        ('--cache', 'cache_dir', None, None, None, False, None),
        ('--fast', 'fast', False, None, 0, False, True),
        ('--format', 'fmt', 'text', ('text', 'json', 'csv'), None, False, None),
        ('--jobs', 'jobs', 1, None, None, False, None),
        ('--out', 'out', None, None, None, False, None),
    ],
    'report': [
        ('', 'report_command', None, ('build', 'query', 'diff', 'manifest'), 'A...', True,
         None),
    ],
    'report build': [
        ('--cache', 'cache', None, None, None, False, None),
        ('--db', 'db', 'results.db', None, None, False, None),
        ('--experiments', 'experiments', None, None, '+', False, None),
        ('--full', 'full', False, None, 0, False, True),
        ('--jobs', 'jobs', 1, None, None, False, None),
        ('--out', 'out', 'report', None, None, False, None),
    ],
    'report diff': [
        ('', 'dir_a', None, None, None, True, None),
        ('', 'dir_b', None, None, None, True, None),
    ],
    'report manifest': [
        ('', 'dir', None, None, None, True, None),
        ('--check', 'check', False, None, 0, False, True),
    ],
    'report query': [
        ('', 'sql', None, None, '?', False, None),
        ('--db', 'db', 'results.db', None, None, False, None),
        ('--json', 'as_json', False, None, 0, False, True),
        ('--tables', 'tables', False, None, 0, False, True),
    ],
    'run': [
        ('', 'workload', None, _WORKLOADS, None, True, None),
        ('--energy', 'energy', False, None, 0, False, True),
        ('--hierarchy', 'hierarchy', None, None, None, False, None),
        ('--mshr', 'mshr', 32, None, None, False, None),
        ('--nodes', 'nodes', 80, None, None, False, None),
        ('--per-sm', 'per_sm', False, None, 0, False, True),
        ('--profile', 'profile', None, None, None, False, None),
        ('--profile-top', 'profile_top', 15, None, None, False, None),
        ('--protocol', 'protocol', 'gpu', ('gpu', 'denovo'), None, False, None),
        ('--quiet', 'quiet', False, None, 0, False, True),
        ('--sample-every', 'sample_every', 5000, None, None, False, None),
        ('--sample-stats', 'sample_stats', [], None, None, False, None),
        ('--scheduler', 'scheduler', 'lrr', ('lrr', 'gto'), None, False, None),
        ('--seed', 'seed', 2016, None, None, False, None),
        ('--set', 'overrides', [], None, None, False, None),
        ('--sms', 'sms', None, None, None, False, None),
        ('--stats', 'stats', False, None, 0, False, True),
        ('--store-buffer', 'store_buffer', None, None, None, False, None),
        ('--telemetry', 'telemetry', None, None, None, False, None),
        ('--timeline', 'timeline', None, None, None, False, None),
        ('--warps', 'warps', 2, None, None, False, None),
    ],
    'sweep': [
        ('', 'file', None, None, None, True, None),
        ('--cache', 'cache', None, None, None, False, None),
        ('--db', 'db', None, None, None, False, None),
        ('--format', 'fmt', 'text', ('text', 'json', 'csv'), None, False, None),
        ('--jobs', 'jobs', 1, None, None, False, None),
        ('--out', 'out', None, None, None, False, None),
        ('--quiet', 'quiet', False, None, 0, False, True),
        ('--sample-every', 'sample_every', 5000, None, None, False, None),
        ('--telemetry', 'telemetry', None, None, None, False, None),
        ('--timeline', 'timeline', None, None, None, False, None),
    ],
    'table51': [
    ],
    'telemetry': [
        ('', 'telemetry_command', None, ('summarize',), 'A...', True, None),
    ],
    'telemetry summarize': [
        ('', 'file', None, None, None, True, None),
        ('--columns', 'columns', [], None, None, False, None),
        ('--format', 'fmt', 'text', ('text', 'csv'), None, False, None),
    ],
    'trace': [
        ('', 'trace_command', None, ('record', 'replay', 'info'), 'A...', True, None),
    ],
    'trace info': [
        ('', 'file', None, None, None, True, None),
    ],
    'trace record': [
        ('', 'workload', None, _WORKLOADS, None, True, None),
        ('--hierarchy', 'hierarchy', None, None, None, False, None),
        ('--mshr', 'mshr', 32, None, None, False, None),
        ('--nodes', 'nodes', 80, None, None, False, None),
        ('--protocol', 'protocol', 'gpu', ('gpu', 'denovo'), None, False, None),
        ('--scheduler', 'scheduler', 'lrr', ('lrr', 'gto'), None, False, None),
        ('--seed', 'seed', 2016, None, None, False, None),
        ('--set', 'overrides', [], None, None, False, None),
        ('--sms', 'sms', None, None, None, False, None),
        ('--store-buffer', 'store_buffer', None, None, None, False, None),
        ('--warps', 'warps', 2, None, None, False, None),
        ('-o --out', 'out', None, None, None, True, None),
    ],
    'trace replay': [
        ('', 'file', None, None, None, True, None),
        ('--mshr', 'mshr', None, None, None, False, None),
        ('--per-sm', 'per_sm', False, None, 0, False, True),
        ('--protocol', 'protocol', None, ('gpu', 'denovo'), None, False, None),
        ('--set', 'overrides', [], None, None, False, None),
        ('--stats', 'stats', False, None, 0, False, True),
        ('--store-buffer', 'store_buffer', None, None, None, False, None),
        ('--verify', 'verify', False, None, 0, False, True),
    ],
    'worker': [
        ('--id', 'worker_id', None, None, None, False, None),
        ('--lease-expiry', 'lease_expiry', 300.0, None, None, False, None),
        ('--max-tasks', 'max_tasks', None, None, None, False, None),
        ('--poll', 'poll', 0.2, None, None, False, None),
        ('--queue', 'queue', None, None, None, True, None),
    ],
}


def _walk(parser, path=()):
    """{subcommand path: option rows} for ``parser`` and its subparsers."""
    surface, rows = {}, []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(_walk(sub, path + (name,)))
        choices = None if action.choices is None else tuple(action.choices)
        rows.append((" ".join(action.option_strings), action.dest, action.default,
                     choices, action.nargs, action.required, action.const))
    surface[" ".join(path)] = sorted(rows, key=repr)
    return surface


class _Parsed(Exception):
    pass


def _runner_parser(monkeypatch):
    """The parser ``runner.main`` builds, caught at its ``parse_args``."""

    def capture(self, args=None, namespace=None):
        raise _Parsed(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Parsed) as caught:
        runner.main([])
    return caught.value.args[0]


def test_repro_surface_is_pinned():
    surface = _walk(cli.build_parser())
    expected = {k: v for k, v in SURFACE.items() if k != "python -m repro.experiments"}
    assert sorted(surface) == sorted(expected)
    for command, rows in expected.items():
        assert surface[command] == sorted(rows, key=repr), command


def test_experiments_surface_is_pinned(monkeypatch):
    rows = _walk(_runner_parser(monkeypatch))[""]
    assert rows == sorted(SURFACE["python -m repro.experiments"], key=repr)
