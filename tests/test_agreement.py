import random
from itertools import permutations

import pytest

from factkit.agreement import (
    AgreementReport,
    RatingsTable,
    average_report,
    cohen_kappa,
    compute_agreement,
    fleiss_kappa,
    krippendorff_alpha_nominal,
    landis_koch,
    percent_agreement,
)
from factkit.errors import (
    EmptyInput,
    LengthMismatch,
    MissingRatings,
    NoComparableUnits,
    OutOfRange,
)


# --- brute-force oracles, written as plain counting loops ---


def oracle_percent(values):
    scores = []
    for row in values:
        present = [v for v in row if v is not None]
        if len(present) < 2:
            continue
        pairs = agree = 0
        for i in range(len(present)):
            for j in range(i + 1, len(present)):
                pairs += 1
                if present[i] == present[j]:
                    agree += 1
        scores.append(agree / pairs)
    return sum(scores) / len(scores)


def oracle_cohen(a, b):
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    labels = set(a) | set(b)
    p_e = sum((a.count(l) / n) * (b.count(l) / n) for l in labels)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def oracle_fleiss(values):
    n_units = len(values)
    n_raters = len(values[0])
    labels = sorted({v for row in values for v in row})
    p_i = []
    for row in values:
        s = sum(row.count(l) ** 2 for l in labels)
        p_i.append((s - n_raters) / (n_raters * (n_raters - 1)))
    p_bar = sum(p_i) / n_units
    p_j = [sum(row.count(l) for row in values) / (n_units * n_raters) for l in labels]
    p_e = sum(p * p for p in p_j)
    if p_e == 1.0:
        return 1.0 if p_bar == 1.0 else 0.0
    return (p_bar - p_e) / (1.0 - p_e)


def oracle_alpha(values):
    coincidence = {}
    for row in values:
        present = [v for v in row if v is not None]
        m = len(present)
        if m < 2:
            continue
        for i in range(m):
            for j in range(m):
                if i != j:
                    key = (present[i], present[j])
                    coincidence[key] = coincidence.get(key, 0.0) + 1.0 / (m - 1)
    labels = sorted({c for pair in coincidence for c in pair})
    n_c = {l: sum(coincidence.get((l, k), 0.0) for k in labels) for l in labels}
    n = sum(n_c.values())
    d_o = sum(v for (x, y), v in coincidence.items() if x != y) / n
    d_e = sum(n_c[x] * n_c[y] for x in labels for y in labels if x != y) / (n * (n - 1))
    if d_e == 0.0:
        return 1.0 if d_o == 0.0 else 0.0
    return 1.0 - d_o / d_e


# --- fixed examples ---


def test_percent_all_identical():
    table = RatingsTable(values=[["x", "x", "x"], ["y", "y", "y"]])
    assert percent_agreement(table) == 1.0


def test_percent_two_raters_half():
    table = RatingsTable(values=[["x", "x"], ["x", "y"], ["y", "x"], ["y", "y"]])
    assert percent_agreement(table) == pytest.approx(0.5, abs=1e-12)


def test_percent_three_raters_one_third():
    table = RatingsTable(values=[["A", "A", "B"]])
    assert percent_agreement(table) == pytest.approx(1 / 3, abs=1e-12)


def test_cohen_identical_lists():
    assert cohen_kappa(["x", "y", "x"], ["x", "y", "x"]) == 1.0


def test_cohen_zero_example():
    assert cohen_kappa(list("xxyy"), list("xyxy")) == pytest.approx(0.0, abs=1e-12)


def test_cohen_symmetry():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 12)
        a = [rng.choice("abc") for _ in range(n)]
        b = [rng.choice("abc") for _ in range(n)]
        assert cohen_kappa(a, b) == pytest.approx(cohen_kappa(b, a), abs=1e-12)


def test_cohen_degenerate_single_label():
    assert cohen_kappa(["a", "a"], ["a", "a"]) == 1.0


def test_cohen_errors():
    with pytest.raises(LengthMismatch):
        cohen_kappa(["a"], ["a", "b"])
    with pytest.raises(EmptyInput):
        cohen_kappa([], [])


def test_fleiss_unanimous_different_labels():
    table = RatingsTable(values=[["A", "A", "A"], ["B", "B", "B"]])
    assert fleiss_kappa(table) == pytest.approx(1.0, abs=1e-12)


def test_fleiss_minus_one_third():
    table = RatingsTable(values=[["A", "A", "B"], ["A", "B", "B"]])
    assert fleiss_kappa(table) == pytest.approx(-1 / 3, abs=1e-12)


def test_fleiss_degenerate_single_label():
    table = RatingsTable(values=[["A", "A"], ["A", "A"]])
    assert fleiss_kappa(table) == 1.0


@pytest.mark.parametrize(
    "values, error, message",
    [
        pytest.param([], EmptyInput, "no units", id="no-units"),
        pytest.param([["a", "b"], ["a"]], LengthMismatch, "one cell per rater", id="ragged"),
        pytest.param([["a"], ["b"]], ValueError, "two raters", id="one-rater"),
        pytest.param([["a", "b"], [None, None]], ValueError, "at least one rating", id="unrated"),
    ],
)
def test_ratings_table_errors(values, error, message):
    with pytest.raises(error, match=message):
        RatingsTable(values=values)


def test_fleiss_rejects_missing():
    table = RatingsTable(values=[["A", None, "B"]])
    with pytest.raises(MissingRatings):
        fleiss_kappa(table)


def test_alpha_fixed_example():
    table = RatingsTable(values=[["a", "a"], ["a", "a"], ["b", "b"], ["b", "a"]])
    assert krippendorff_alpha_nominal(table) == pytest.approx(16 / 30, abs=1e-12)
    assert krippendorff_alpha_nominal(table) == pytest.approx(
        1 - 0.25 / (30 / 56), abs=1e-12
    )


def test_alpha_perfect_agreement():
    table = RatingsTable(values=[["a", "a"], ["b", "b"]])
    assert krippendorff_alpha_nominal(table) == 1.0


def test_alpha_excludes_single_rating_units():
    with_lonely = RatingsTable(
        values=[["a", "a"], ["b", "b"], ["b", "a"], ["a", None]]
    )
    without = RatingsTable(values=[["a", "a"], ["b", "b"], ["b", "a"]])
    assert krippendorff_alpha_nominal(with_lonely) == pytest.approx(
        krippendorff_alpha_nominal(without), abs=1e-12
    )


def test_alpha_no_comparable_units():
    table = RatingsTable(values=[["a", None], [None, "b"]])
    with pytest.raises(NoComparableUnits):
        krippendorff_alpha_nominal(table)
    with pytest.raises(NoComparableUnits):
        percent_agreement(table)


# --- Landis-Koch bands ---


@pytest.mark.parametrize(
    "value,band",
    [
        (0.657, "Substantial"),
        (0.458, "Moderate"),
        (1.0, "Almost Perfect"),
        (0.81, "Almost Perfect"),
        (0.80, "Substantial"),
        (0.61, "Substantial"),
        (0.60, "Moderate"),
        (0.41, "Moderate"),
        (0.40, "Fair"),
        (0.205, "Fair"),
        (0.20, "Slight"),
        (0.0, "Slight"),
        (-0.001, "Poor"),
        (-1.0, "Poor"),
    ],
)
def test_landis_koch_bands(value, band):
    assert landis_koch(value) == band


def test_landis_koch_out_of_range():
    with pytest.raises(OutOfRange):
        landis_koch(1.5)


# --- oracle equivalence on random tables ---


def random_table(rng, allow_missing, units=(1, 6), raters=(2, 4), labels="abcd"):
    n_units = rng.randint(*units)
    n_raters = rng.randint(*raters)
    labels = labels[: rng.randint(1, len(labels))]
    values = []
    for _ in range(n_units):
        row = [rng.choice(labels) for _ in range(n_raters)]
        if allow_missing:
            for i in range(n_raters):
                if rng.random() < 0.2:
                    row[i] = None
            if all(v is None for v in row):
                row[0] = rng.choice(labels)
        values.append(row)
    return values


def check_against_oracles(values, checked):
    table = RatingsTable(values=[list(row) for row in values])
    if any(len([v for v in row if v is not None]) >= 2 for row in values):
        assert percent_agreement(table) == pytest.approx(
            oracle_percent(values), abs=1e-9
        )
        assert krippendorff_alpha_nominal(table) == pytest.approx(
            oracle_alpha(values), abs=1e-9
        )
        checked["percent"] += 1
        checked["alpha"] += 1
    if table.is_complete():
        assert fleiss_kappa(table) == pytest.approx(oracle_fleiss(values), abs=1e-9)
        checked["fleiss"] += 1
        if table.n_raters == 2:
            a = [row[0] for row in values]
            b = [row[1] for row in values]
            assert cohen_kappa(a, b) == pytest.approx(oracle_cohen(a, b), abs=1e-9)
            checked["cohen"] += 1


def test_statistics_match_oracles_on_random_tables():
    rng = random.Random(123)
    checked = {"percent": 0, "cohen": 0, "fleiss": 0, "alpha": 0}
    for trial in range(200):
        check_against_oracles(random_table(rng, allow_missing=trial % 2 == 0), checked)
    assert all(count > 10 for count in checked.values())


def test_statistics_match_oracles_on_large_tables():
    rng = random.Random(321)
    checked = {"percent": 0, "cohen": 0, "fleiss": 0, "alpha": 0}
    for trial in range(80):
        values = random_table(
            rng, trial % 2 == 0, units=(50, 300), raters=(2, 5), labels="abcdefghi"
        )
        check_against_oracles(values, checked)
    assert all(count > 3 for count in checked.values())


def test_relabeling_invariance():
    rng = random.Random(9)
    values = [[rng.choice("abc") for _ in range(3)] for _ in range(6)]
    table = RatingsTable(values=values)
    for perm in permutations("abc"):
        mapping = dict(zip("abc", perm))
        mapped = RatingsTable(values=[[mapping[v] for v in row] for row in values])
        assert fleiss_kappa(mapped) == pytest.approx(fleiss_kappa(table), abs=1e-12)
        assert percent_agreement(mapped) == pytest.approx(
            percent_agreement(table), abs=1e-12
        )
        assert krippendorff_alpha_nominal(mapped) == pytest.approx(
            krippendorff_alpha_nominal(table), abs=1e-12
        )


def test_alpha_unit_and_rater_order_invariance():
    rng = random.Random(10)
    values = [[rng.choice("ab") for _ in range(3)] for _ in range(5)]
    base = krippendorff_alpha_nominal(RatingsTable(values=values))
    shuffled_units = values[::-1]
    assert krippendorff_alpha_nominal(RatingsTable(values=shuffled_units)) == pytest.approx(
        base, abs=1e-12
    )
    shuffled_raters = [[row[2], row[0], row[1]] for row in values]
    assert krippendorff_alpha_nominal(RatingsTable(values=shuffled_raters)) == pytest.approx(
        base, abs=1e-12
    )


# --- report assembly ---


def test_compute_agreement_two_raters():
    table = RatingsTable(values=[["a", "a"], ["a", "b"], ["b", "b"], ["a", "a"]])
    report = compute_agreement(table)
    assert report.cohen is not None
    assert report.fleiss is not None
    assert report.interpretation == landis_koch(report.cohen)
    assert report.n_units == 4


def test_compute_agreement_multi_rater_uses_fleiss_band():
    table = RatingsTable(values=[["a", "a", "a"], ["b", "b", "a"], ["b", "b", "b"]])
    report = compute_agreement(table)
    assert report.cohen is None
    assert report.interpretation == landis_koch(report.fleiss)


def test_average_report_means():
    r1 = AgreementReport(
        percent=0.8, cohen=None, fleiss=0.6, kripp_alpha=0.58, interpretation="Moderate", n_units=10
    )
    r2 = AgreementReport(
        percent=0.9, cohen=None, fleiss=0.8, kripp_alpha=0.82, interpretation="Substantial", n_units=10
    )
    avg = average_report([r1, r2])
    assert avg.percent == pytest.approx(0.85)
    assert avg.fleiss == pytest.approx(0.7)
    assert avg.kripp_alpha == pytest.approx(0.7)
    assert avg.interpretation == "Substantial"  # band of the averaged kappa


def test_average_report_refuses_no_reports():
    with pytest.raises(EmptyInput, match="no reports to average"):
        average_report([])


def test_average_band_follows_the_rows_rule():
    # two complete raters: every row bands by Cohen's kappa, so the average row does too
    split = RatingsTable(values=[["a", "b"], ["b", "b"]] * 3)  # Cohen 0, Fleiss -1/3
    perfect = RatingsTable(values=[["b", "b"], ["a", "a"], ["a", "a"]])
    avg = average_report([compute_agreement(split), compute_agreement(perfect)])
    assert (avg.cohen, avg.fleiss) == pytest.approx((0.5, 1 / 3), abs=1e-12)
    assert avg.interpretation == "Moderate"  # mean Fleiss' kappa, 0.333, would read "Fair"
