"""One argv surface: each subcommand takes only the options it reads.

Every option of a subcommand other than ``--format`` and ``--out``,
which ``cli.run`` reads for all of them, is read as ``args.<dest>`` in
that subcommand's handler, and the handler reads no other option.  An
option nobody reads would still be echoed in the config, so two argv
with the same report could differ in their bytes."""

import argparse
import ast
import inspect
import textwrap

from xpv import cli

RUN_READS = {"format", "out"}


def _subparsers(parser):
    """{name: subparser} of an ``argparse`` parser."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _dests(subparser):
    return {a.dest for a in subparser._actions if not isinstance(a, argparse._HelpAction)}


def _args_reads(tree):
    """Every attribute read off the name ``args``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


def _stray(subparser, handler_tree):
    """(options the handler does not read, reads that are not options)."""
    dests, reads = _dests(subparser) - RUN_READS, _args_reads(handler_tree)
    return dests - reads, reads - dests


def _tree(fn):
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def test_every_option_is_read_by_its_handler():
    subparsers = _subparsers(cli._build_parser())
    assert set(subparsers) == set(cli._HANDLERS)
    for name, subparser in subparsers.items():
        assert RUN_READS <= _dests(subparser), name
        assert _stray(subparser, _tree(cli._HANDLERS[name])) == (set(), set()), name


def test_rule_flags_a_stray_option():
    parser = argparse.ArgumentParser(prog="xpv")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("charsum")
    for flag in ("--format", "--out", "--q", "--seed"):
        p.add_argument(flag)
    handler = ast.parse(
        "def _cmd_charsum(args):\n"
        "    return [char_sum_profile(q) for q in args.q], args.pv\n"
    )
    assert _stray(_subparsers(parser)["charsum"], handler) == ({"seed"}, {"pv"})
