import re

from latticeflow import ChainLattice
from latticeflow.dilworth import WeightedPoset
from latticeflow.dot import network_dot, poset_dot
from latticeflow.network import CapacityAssignment, FlowNetwork

# a trailing backslash, an inner quote, and an escaped-looking quote
NAMES = ["x\\", 'a"b', 'c\\"']

# DOT's quoted-string lexer: inside quotes a backslash pairs with the
# next backslash or quote, and any other character stands for itself
QUOTED = re.compile(r'"((?:\\[\\"]|[^"\\]|\\(?![\\"]))*)"')


def quoted_strings(line: str) -> list[str]:
    """The decoded quoted strings of one DOT line; fails if one never closes."""
    out, pos = [], 0
    while (start := line.find('"', pos)) != -1:
        m = QUOTED.match(line, start)
        assert m is not None, f"unclosed quoted string in {line!r}"
        out.append(re.sub(r'\\([\\"])', r"\1", m.group(1)))
        pos = m.end()
    return out


def node_names(text: str) -> list[str]:
    return [quoted_strings(line)[0] for line in text.splitlines() if "->" not in line and "[" in line]


def test_network_names_round_trip():
    s, t = "s", "t"
    net = FlowNetwork([s, *NAMES, t], [(s, NAMES[0]), (NAMES[0], NAMES[1]), (NAMES[1], NAMES[2]), (NAMES[2], t)], s, t)
    L = ChainLattice(3)
    cap = CapacityAssignment(L, {e: 1 for e in net.edges})
    text = network_dot(net, cap, highlight_path=(s, *NAMES, t), name='net\\"')
    lines = text.splitlines()
    assert quoted_strings(lines[0]) == ['net\\"']
    assert node_names(text) == [s, *NAMES, t]
    edges = [quoted_strings(line)[:2] for line in lines if "->" in line]
    assert edges == [list(e) for e in net.edges]


def test_poset_names_and_labels_round_trip():
    L = ChainLattice(3)
    poset = WeightedPoset(NAMES, [(NAMES[0], NAMES[1]), (NAMES[1], NAMES[2])], dict.fromkeys(NAMES, 1), L)
    text = poset_dot(poset, highlight_chain=tuple(NAMES), name="p\\")
    assert quoted_strings(text.splitlines()[0]) == ["p\\"]
    nodes = [quoted_strings(line) for line in text.splitlines() if "shape=box" in line]
    # the label keeps DOT's \n line break between the name and its weight
    assert nodes == [[x, f"{x}\\n{L.format(1)}"] for x in NAMES]
    assert len({name for name, _ in nodes}) == len(NAMES)
