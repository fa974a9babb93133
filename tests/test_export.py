from xml.sax.saxutils import quoteattr as sax_quoteattr

from hypothesis import given, settings, strategies as st

from chronoscope.cli import main
from chronoscope.export import quoteattr

SNAPSHOT = (
    "#snapshot v1 year=2010\n"
    "a\"b.ac.uk\tc'd.ac.uk\t3\n"
    "c'd.ac.uk\te&f<g>.ac.uk\t1\n"
    "e&f<g>.ac.uk\th\"i'j.ac.uk\t2\n"
    "h\"i'j.ac.uk\ta\"b.ac.uk\t5\n"
    "plain.ac.uk\ta\"b.ac.uk\t7\n"
)
HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
    '  <key id="weight" for="edge" attr.name="weight" attr.type="long"/>\n'
    '  <graph id="year_2010" edgedefault="directed">\n'
)
TAIL = "  </graph>\n</graphml>\n"


@settings(max_examples=1000)
@given(st.text("ab&<>\"'\n\r\t.ü€ "))
def test_quoteattr_matches_the_standard_library(text):
    assert quoteattr(text) == sax_quoteattr(text)


def test_export_quotes_names(tmp_path):
    # a name with a double quote alone is single-quoted, one with both
    # quotes escapes the double one
    snap = tmp_path / "snapshot_2010.tsv"
    snap.write_text(SNAPSHOT, encoding="utf-8")
    assert main(["export", str(snap), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "graph_2010.graphml").read_text(encoding="utf-8") == HEAD + (
        "    <node id='a\"b.ac.uk'/>\n"
        "    <node id=\"c'd.ac.uk\"/>\n"
        '    <node id="e&amp;f&lt;g&gt;.ac.uk"/>\n'
        "    <node id=\"h&quot;i'j.ac.uk\"/>\n"
        '    <node id="plain.ac.uk"/>\n'
        "    <edge source='a\"b.ac.uk' target=\"c'd.ac.uk\"><data key=\"weight\">3</data></edge>\n"
        "    <edge source=\"c'd.ac.uk\" target=\"e&amp;f&lt;g&gt;.ac.uk\">"
        '<data key="weight">1</data></edge>\n'
        '    <edge source="e&amp;f&lt;g&gt;.ac.uk" target="h&quot;i\'j.ac.uk">'
        '<data key="weight">2</data></edge>\n'
        "    <edge source=\"h&quot;i'j.ac.uk\" target='a\"b.ac.uk'><data key=\"weight\">5</data></edge>\n"
        "    <edge source=\"plain.ac.uk\" target='a\"b.ac.uk'><data key=\"weight\">7</data></edge>\n"
    ) + TAIL


def test_export_nodes_are_the_induced_endpoints(tmp_path):
    # e&f<g> passes the filter but loses both its edges, and x.ac.uk is not
    # in the snapshot: neither is written
    snap = tmp_path / "snapshot_2010.tsv"
    snap.write_text(SNAPSHOT, encoding="utf-8")
    nodes = tmp_path / "nodes.txt"
    nodes.write_text('a"b.ac.uk\ne&f<g>.ac.uk\nplain.ac.uk\nx.ac.uk\n', encoding="utf-8")
    argv = ["export", str(snap), "--nodes", str(nodes), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "graph_2010.graphml").read_text(encoding="utf-8") == HEAD + (
        "    <node id='a\"b.ac.uk'/>\n"
        '    <node id="plain.ac.uk"/>\n'
        "    <edge source=\"plain.ac.uk\" target='a\"b.ac.uk'><data key=\"weight\">7</data></edge>\n"
    ) + TAIL
