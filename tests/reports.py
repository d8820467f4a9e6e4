"""The one encoding the tests pin a VerificationReport in: its to_dict()
as compact json with sorted keys, the line `verify --format json` prints
without its newline."""

import json


def report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
