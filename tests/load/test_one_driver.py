"""Pins every real-socket experiment and bench to ``repro.load``.

Clients that open their own sockets and read their own replies are how
the repository once grew seven copies of one driver, each with its own
idea of a served request.  These checks stop such a client from growing
back under ``benchmarks/`` or ``src/repro/experiments/``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
PINNED = sorted(path for top in ("benchmarks", "src/repro/experiments")
                for path in ROOT.joinpath(top).rglob("*.py"))


def hand_written_client_calls(tree):
    """Line numbers of ``socket.create_connection(...)`` and ``.recv(...)``
    calls in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            func = node.func
            if func.attr == "recv" or (
                    func.attr == "create_connection"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "socket"):
                lines.append(node.lineno)
    return lines


def test_the_pinned_directories_exist():
    assert any(path.parent.name == "benchmarks" for path in PINNED)
    assert any(path.parent.name == "experiments" for path in PINNED)


@pytest.mark.parametrize("path", PINNED, ids=lambda p: p.name)
def test_no_hand_written_client(path):
    tree = ast.parse(path.read_text())
    assert hand_written_client_calls(tree) == [], (
        f"{path.name} opens or reads its own client socket; "
        "use repro.load instead")


def test_the_check_sees_both_calls():
    tree = ast.parse("s = socket.create_connection(addr)\ns.recv(4096)\n")
    assert hand_written_client_calls(tree) == [1, 2]
