"""Figure 8: anomalies allowed by each isolation property.

Regenerates the paper's anomaly table by applying each level's
acceptance checker to each anomaly's literal history and checks each
cell against the printed figure; then widens the figure along both axes (strict serializability
and NMSI columns; write skew and the two timing-anomaly rows) and checks
the extended matrix the same way.
"""

from repro.protocols.levels import LEVEL_LABELS
from repro.spec import (
    ANOMALY_NAMES,
    EXPECTED_TABLE,
    EXTENDED_ANOMALY_NAMES,
    EXTENDED_EXPECTED_TABLE,
    EXTENDED_ISOLATION_LEVELS,
    ISOLATION_LEVELS,
    anomaly_table,
    extended_anomaly_table,
)
from repro.bench import format_table


def test_fig08_anomaly_table(once):
    table = once(anomaly_table)

    rows = []
    for anomaly in ANOMALY_NAMES:
        rows.append(
            [anomaly.replace("_", " ")]
            + ["Yes" if table[anomaly][level] else "No" for level in ISOLATION_LEVELS]
        )
    print()
    print("Figure 8: anomalies allowed by each isolation property")
    print(format_table(["anomaly"] + list(ISOLATION_LEVELS), rows))

    assert table == EXPECTED_TABLE


def test_fig08_extended_anomaly_table(once):
    table = once(extended_anomaly_table)

    rows = []
    for anomaly in EXTENDED_ANOMALY_NAMES:
        rows.append(
            [anomaly.replace("_", " ")]
            + [
                "Yes" if table[anomaly][level] else "No"
                for level in EXTENDED_ISOLATION_LEVELS
            ]
        )
    print()
    print("Extended anomaly table: the protocol zoo's six levels")
    print(
        format_table(
            ["anomaly"]
            + [LEVEL_LABELS[level] for level in EXTENDED_ISOLATION_LEVELS],
            rows,
        )
    )

    assert table == EXTENDED_EXPECTED_TABLE
