"""The pair summary of tools/bench_pairs.py, on made-up runs."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(HERE, os.pardir, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _row(result_s, peak_rss_mb=10.0, setup_s=0.1):
    return {"result_s": result_s, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s, "failed": 0}


def test_summary_counts_wins_and_quartiles():
    pairs = [{"parent": _row(p), "change": _row(c)}
             for p, c in [(2.0, 1.0), (3.0, 1.5), (4.0, 4.5), (5.0, 2.0), (6.0, 3.0)]]
    summary = bench_pairs.summarize(pairs)
    result = summary["result_s"]
    assert result["pairs"] == 5 and result["change_wins"] == 4
    assert result["parent"] == {"median": 4.0, "q1": 3.0, "q3": 5.0, "iqr": 2.0}
    assert result["change"]["median"] == 2.0
    # a tie counts for neither side
    assert summary["peak_rss_mb"]["change_wins"] == 0


def test_src_digest_names_the_source_tree():
    root = os.path.join(HERE, os.pardir)
    assert bench_pairs.src_digest(root) == bench_pairs.src_digest(root)
    assert len(bench_pairs.src_digest(root)) == 64
