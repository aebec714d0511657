"""The comparison rule: improved / regressed / unresolved / unchanged."""

from calib import Uncalibrated
from compare import verdict
from spans import Tracer


def test_improved_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_spread():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    change = [value * 0.8 for value in parent]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "improved"
    assert verdict(parent, change[:9], "lower", 0.1)["verdict"] != "improved"  # 9 pairs
    mixed = change[:8] + [11.0, 11.0]
    assert verdict(parent, mixed, "lower", 0.1)["verdict"] == "unchanged"


def test_regressed_beyond_the_bound_in_either_direction():
    parent = [100.0 + i for i in range(10)]
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)["verdict"] == "regressed"
    assert verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)["verdict"] == "regressed"
    assert verdict(parent, [v * 1.05 for v in parent], "lower", 0.1)["verdict"] == "unchanged"


def test_a_parent_that_does_not_repeat_is_unresolved_not_unchanged():
    parent = [10, 14, 9, 15, 10, 16, 8, 13, 11, 15]
    change = [11, 13, 10, 14, 11, 15, 9, 14, 10, 14]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "unresolved"


def test_self_time_is_duration_minus_direct_children():
    spans = [
        (1, None, 1, "root", 0.0, 10.0),
        (2, 1, 1, "child", 1.0, 4.0),
        (3, 2, 1, "leaf", 2.0, 3.0),
        (4, 1, 1, "child", 5.0, 6.0),
    ]
    totals = Tracer.aggregate(spans)
    assert totals["root"].self_s == 6.0
    assert totals["child"].calls == 2 and totals["child"].self_s == 3.0
    assert sum(entry.self_s for entry in totals.values()) == 10.0


def test_windowed_quantile_ignores_one_stalled_window():
    at = [i / 100 for i in range(1000)]  # ten seconds, 100 values a second
    values = [1.0] * 1000
    values[300:400] = [50.0] * 100      # one whole second stalled
    median_window = Uncalibrated().nominal_quantile(at, values, 0.95, 0.0, 10.0)
    assert median_window == 1.0
