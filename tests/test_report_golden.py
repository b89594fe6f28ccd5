"""Golden report bytes: fixed label-code arrays through the F1 and distribution reports.

The expected strings were captured from the label-set implementation that
the code-array one replaced; any change to a count, an average or the
rendering shows up here as a text diff.
"""

import numpy as np

from factkit.analyze import aggregate_distribution, leakage_audit, render_distribution
from factkit.cli import _aggregate_and_render
from factkit.metrics import aggregate_seeds, evaluate_labelsets, render_aggregate
from factkit.taxonomy import FactRecord

# columns: main_category, time, referent, duration, validity, invalidity_reason, followup
GOLD = np.array(
    [
        [0, 1, 0, 1, 0, 5, 2],
        [3, 0, 1, 0, 0, 5, 2],
        [8, 3, 2, 2, 1, 1, 2],
        [6, 2, 0, 0, 0, 5, 0],
        [0, 2, 0, 1, 0, 5, 1],
        [8, 3, 2, 2, 1, 2, 2],
        [4, 2, 1, 0, 0, 5, 0],
        [1, 1, 0, 1, 0, 5, 2],
    ]
)
PRED = np.array(
    [
        [0, 1, 0, 1, 0, 5, 2],
        [0, 0, 1, 1, 0, 5, 2],
        [8, 3, 2, 2, 1, 2, 2],
        [6, 2, 0, 0, 0, 5, 1],
        [3, 2, 1, 1, 0, 5, 1],
        [8, 3, 2, 2, 0, 2, 2],
        [4, 1, 1, 0, 0, 5, 0],
        [1, 1, 0, 2, 0, 0, 2],
    ]
)
CONF_A = np.linspace(0.35, 0.99, GOLD.size).reshape(GOLD.shape)
CONF_B = np.linspace(0.97, 0.41, GOLD.size).reshape(GOLD.shape) ** 2

EXPECTED_F1 = """\
category-level macro F1 (mean±std over seeds, %)

Main Category      75.0±0.0
Time               90.0±0.0
Referent           88.6±0.0
Duration           75.6±0.0
Validity           79.5±0.0
Invalidity Reason  39.4±0.0
Followup           77.8±0.0
Overall            74.1±0.0

per-label F1 (mean±std over seeds, %)

Duration / Long-term                    66.7±0.0  support=3.0
Duration / None                         80.0±0.0  support=2.0
Duration / Short-term                   80.0±0.0  support=3.0
Followup / Maybe                        66.7±0.0  support=1.0
Followup / None                        100.0±0.0  support=5.0
Followup / Yes                          66.7±0.0  support=2.0
Invalidity Reason / Context Insufficient    66.7±0.0  support=1.0
Invalidity Reason / No Fact              0.0±0.0  support=0.0
Invalidity Reason / None                90.9±0.0  support=6.0
Invalidity Reason / Opinion              0.0±0.0  support=1.0
Main Category / Characteristics        100.0±0.0  support=1.0
Main Category / Demographics           100.0±0.0  support=1.0
Main Category / Experience               0.0±0.0  support=1.0
Main Category / Goals and Plans        100.0±0.0  support=1.0
Main Category / None                   100.0±0.0  support=2.0
Main Category / Preferences             50.0±0.0  support=2.0
Referent / None                        100.0±0.0  support=2.0
Referent / Other                        80.0±0.0  support=2.0
Referent / Self                         85.7±0.0  support=4.0
Time / Future                           80.0±0.0  support=3.0
Time / None                            100.0±0.0  support=2.0
Time / Past                            100.0±0.0  support=1.0
Time / Present                          80.0±0.0  support=2.0
Validity / Invalid                      66.7±0.0  support=2.0
Validity / Valid                        92.3±0.0  support=6.0

n_seeds=1
degenerate=true
overall_macro_f1.mean=0.740906
overall_macro_f1.std=0.000000
per_category.main_category.mean=0.750000
per_category.main_category.std=0.000000
per_category.time.mean=0.900000
per_category.time.std=0.000000
per_category.referent.mean=0.885714
per_category.referent.std=0.000000
per_category.duration.mean=0.755556
per_category.duration.std=0.000000
per_category.validity.mean=0.794872
per_category.validity.std=0.000000
per_category.invalidity_reason.mean=0.393939
per_category.invalidity_reason.std=0.000000
per_category.followup.mean=0.777778
per_category.followup.std=0.000000
"""

EXPECTED_DISTRIBUTION = """\
corpus facts: 8, seed models: 2

dimension           label                          share %        conf %
main_category       Preferences                   25.0±0.0     54.8±22.2
main_category       Characteristics               12.5±0.0     57.1±49.4
main_category       Routine Activities             0.0±0.0             -
main_category       Experience                    12.5±0.0      74.2±9.3
main_category       Goals and Plans               12.5±0.0     56.6±38.5
main_category       Relationships                  0.0±0.0             -
main_category       Demographics                  12.5±0.0      58.3±1.6
main_category       Possessions                    0.0±0.0             -
main_category       None                          25.0±0.0      58.3±7.4
time                Past                          12.5±0.0     61.6±24.5
time                Present                       31.2±8.8     64.1±10.4
time                Future                        31.2±8.8     53.9±15.2
time                None                          25.0±0.0      58.1±9.2
referent            Self                          43.8±8.8      58.3±8.7
referent            Other                         31.2±8.8     59.7±10.6
referent            None                          25.0±0.0     58.0±11.1
duration            Short-term                    31.2±8.8     63.3±16.8
duration            Long-term                     37.5±0.0      51.1±1.3
duration            None                          31.2±8.8     62.6±19.6
validity            Valid                         81.2±8.8     59.6±14.5
validity            Invalid                       18.8±8.8      51.7±6.1
invalidity_reason   No Fact                        6.2±8.8      97.8±0.0
invalidity_reason   Opinion                        6.2±8.8      60.3±0.0
invalidity_reason   Context Insufficient          18.8±8.8     50.5±26.6
invalidity_reason   Unattributable                 0.0±0.0             -
invalidity_reason   Multiple Facts                 0.0±0.0             -
invalidity_reason   None                          68.8±8.8     55.8±11.0
followup            Yes                           18.8±8.8     63.3±39.0
followup            Maybe                         18.8±8.8     54.7±22.3
followup            None                          62.5±0.0     59.1±10.4

leakage audit: overlap_count=2 overlap_fraction=0.2500
leakage audit: max per-cell share shift = 25.0000 pp
"""


# The two reports below were captured from a cli._aggregate_and_render that
# aggregated strictly first and harmonized only when the label sets differed.

# Two seeds over the same labels: reversing the predicted rows keeps each label set.
EXPECTED_TWO_SEEDS = """\
category-level macro F1 (mean±std over seeds, %)

Main Category      45.8±41.2
Time               77.5±17.7
Referent           88.6±0.0
Duration           63.3±17.3
Validity           79.5±0.0
Invalidity Reason  39.4±0.0
Followup           63.3±20.4
Overall            61.9±17.3

per-label F1 (mean±std over seeds, %)

Duration / Long-term                   50.0±23.6  support=3.0
Duration / None                         80.0±0.0  support=2.0
Duration / Short-term                  60.0±28.3  support=3.0
Followup / Maybe                        66.7±0.0  support=1.0
Followup / None                        90.0±14.1  support=5.0
Followup / Yes                         33.3±47.1  support=2.0
Invalidity Reason / Context Insufficient    66.7±0.0  support=1.0
Invalidity Reason / No Fact              0.0±0.0  support=0.0
Invalidity Reason / None                90.9±0.0  support=6.0
Invalidity Reason / Opinion              0.0±0.0  support=1.0
Main Category / Characteristics        50.0±70.7  support=1.0
Main Category / Demographics           50.0±70.7  support=1.0
Main Category / Experience               0.0±0.0  support=1.0
Main Category / Goals and Plans        50.0±70.7  support=1.0
Main Category / None                   100.0±0.0  support=2.0
Main Category / Preferences            25.0±35.4  support=2.0
Referent / None                        100.0±0.0  support=2.0
Referent / Other                        80.0±0.0  support=2.0
Referent / Self                         85.7±0.0  support=4.0
Time / Future                           80.0±0.0  support=3.0
Time / None                            100.0±0.0  support=2.0
Time / Past                            50.0±70.7  support=1.0
Time / Present                          80.0±0.0  support=2.0
Validity / Invalid                      66.7±0.0  support=2.0
Validity / Valid                        92.3±0.0  support=6.0

n_seeds=2
degenerate=false
overall_macro_f1.mean=0.618906
overall_macro_f1.std=0.172534
per_category.main_category.mean=0.458333
per_category.main_category.std=0.412479
per_category.time.mean=0.775000
per_category.time.std=0.176777
per_category.referent.mean=0.885714
per_category.referent.std=0.000000
per_category.duration.mean=0.633333
per_category.duration.std=0.172848
per_category.validity.mean=0.794872
per_category.validity.std=0.000000
per_category.invalidity_reason.mean=0.393939
per_category.invalidity_reason.std=0.000000
per_category.followup.mean=0.633333
per_category.followup.std=0.204275
"""

# The second seed sees only the first six rows, so three labels never occur in it.
EXPECTED_DROPPED = """\
category-level macro F1 (mean±std over seeds, %)

Main Category      68.8±8.8
Time               95.0±7.1
Referent           85.4±4.5
Duration           78.9±4.7
Validity           78.6±1.2
Invalidity Reason  47.5±11.4
Followup           66.7±15.7
Overall            74.1±0.1

per-label F1 (mean±std over seeds, %)

Duration / Long-term                    73.3±9.4  support=2.5
Duration / None                        90.0±14.1  support=2.0
Duration / Short-term                   73.3±9.4  support=2.5
Followup / Maybe                        66.7±0.0  support=1.0
Followup / None                        100.0±0.0  support=4.5
Followup / Yes                         33.3±47.1  support=1.5
Invalidity Reason / Context Insufficient    66.7±0.0  support=1.0
Invalidity Reason / None                95.5±6.4  support=5.0
Invalidity Reason / Opinion              0.0±0.0  support=1.0
Main Category / Demographics           100.0±0.0  support=1.0
Main Category / Experience               0.0±0.0  support=1.0
Main Category / None                   100.0±0.0  support=2.0
Main Category / Preferences             50.0±0.0  support=2.0
Referent / None                        100.0±0.0  support=2.0
Referent / Other                        73.3±9.4  support=1.5
Referent / Self                         82.9±4.0  support=3.5
Time / Future                          90.0±14.1  support=2.5
Time / None                            100.0±0.0  support=2.0
Time / Past                            100.0±0.0  support=1.0
Time / Present                         90.0±14.1  support=1.5
Validity / Invalid                      66.7±0.0  support=2.0
Validity / Valid                        90.6±2.4  support=5.0

note: Invalidity Reason / No Fact missing from some seeds; omitted from per-label aggregation
note: Main Category / Characteristics missing from some seeds; omitted from per-label aggregation
note: Main Category / Goals and Plans missing from some seeds; omitted from per-label aggregation

n_seeds=2
degenerate=false
overall_macro_f1.mean=0.741412
overall_macro_f1.std=0.000717
per_category.main_category.mean=0.687500
per_category.main_category.std=0.088388
per_category.time.mean=0.950000
per_category.time.std=0.070711
per_category.referent.mean=0.853968
per_category.referent.std=0.044896
per_category.duration.mean=0.788889
per_category.duration.std=0.047140
per_category.validity.mean=0.786325
per_category.validity.std=0.012087
per_category.invalidity_reason.mean=0.474747
per_category.invalidity_reason.std=0.114280
per_category.followup.mean=0.666667
per_category.followup.std=0.157135
"""


def test_f1_report_bytes():
    report = evaluate_labelsets(GOLD, PRED)
    assert render_aggregate(aggregate_seeds([report])) == EXPECTED_F1


def test_distribution_report_bytes():
    corpus = [FactRecord(id=f"c{i}", text=f"corpus text {i}") for i in range(len(GOLD))]
    train = [FactRecord(id="t0", text="corpus text 2 "), FactRecord(id="t1", text="corpus text 5")]
    tables = [(PRED, CONF_A), (GOLD, CONF_B)]
    text = render_distribution(aggregate_distribution(tables), leakage_audit(train, corpus, tables))
    assert text == EXPECTED_DISTRIBUTION


def test_aggregate_and_render_bytes():
    report = evaluate_labelsets(GOLD, PRED)
    assert _aggregate_and_render([report, evaluate_labelsets(GOLD, PRED[::-1])]) == EXPECTED_TWO_SEEDS
    dropped = [report, evaluate_labelsets(GOLD[:6], PRED[:6])]
    assert _aggregate_and_render(dropped) == EXPECTED_DROPPED
