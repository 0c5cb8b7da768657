#!/usr/bin/env python3
"""Validates a Prometheus text-format (0.0.4) scrape from grasp_serve.

    check_metrics.py SCRAPE [BASELINE]

Checks, in order:
  1. Grammar: every line is a comment or `name[{labels}] value` with a
     parseable float value and a well-formed label block.
  2. Families: every sample belongs to a family announced by # TYPE, and
     histogram sample suffixes (_bucket/_sum/_count) only appear under
     histogram families.
  3. Histogram structure, per labeled series: cumulative bucket counts are
     nondecreasing in `le` order, the +Inf bucket exists, and _count
     equals the +Inf cumulative count exactly.
  4. Cross-scrape monotonicity (when BASELINE is given): every counter,
     histogram _count, and cumulative bucket present in BASELINE must
     still exist in SCRAPE with a value >= its baseline value. Counters
     going backwards mean a metric got re-registered or raced.

Exits 0 when every check passes, 1 with one line per violation otherwise.
The CI network-smoke job runs this on scrapes taken before and after the
chaos run; it is dependency-free on purpose.
"""

import math
import re
import sys

NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[^\"}]|\"(?:[^\"\\]|\\.)*\")*\})? (\S+)$"
)


def parse(text, errors, origin):
    """Returns ({family: type}, {(name, label_block): float_value})."""
    types = {}
    samples = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"{origin}:{lineno}"
        if not line:
            errors.append(f"{where}: blank line inside exposition")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                errors.append(f"{where}: malformed TYPE line: {line}")
                continue
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            if not line.startswith("# HELP "):
                errors.append(f"{where}: unknown comment form: {line}")
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"{where}: unparsable sample line: {line}")
            continue
        name, labels, value_text = m.group(1), m.group(2) or "", m.group(3)
        try:
            value = float(value_text)
        except ValueError:
            errors.append(f"{where}: bad value '{value_text}' in: {line}")
            continue
        if math.isnan(value):
            errors.append(f"{where}: NaN value in: {line}")
        if labels:
            body = labels[1:-1]
            if LABEL_RE.sub("", body).strip(","):
                errors.append(f"{where}: malformed label block: {labels}")
        key = (name, labels)
        if key in samples:
            errors.append(f"{where}: duplicate sample: {name}{labels}")
        samples[key] = value
    return types, samples


def family_of(name, types):
    """Maps a sample name to its announced family, handling histogram
    suffixes."""
    if name in types:
        return name, types[name]
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)], types[name[: -len(suffix)]]
    return None, None


def le_of(label_block):
    """Returns (le_value_or_None, label_block_without_le)."""
    le = None
    kept = []
    for key, raw in LABEL_RE.findall(label_block[1:-1] if label_block else ""):
        if key == "le":
            le = math.inf if raw == "+Inf" else float(raw)
        else:
            kept.append(f'{key}="{raw}"')
    return le, "{" + ",".join(kept) + "}" if kept else ""


def check_structure(types, samples, errors, origin):
    # Histogram series, keyed by (family, labels-minus-le).
    buckets = {}
    for (name, labels), value in samples.items():
        family, ftype = family_of(name, types)
        if family is None:
            errors.append(f"{origin}: sample without # TYPE: {name}{labels}")
            continue
        is_histogram_part = name != family
        if is_histogram_part and ftype != "histogram":
            errors.append(
                f"{origin}: {name}{labels} uses histogram suffix but "
                f"{family} is a {ftype}"
            )
        if ftype in ("counter", "histogram") and value < 0:
            errors.append(f"{origin}: negative {ftype}: {name}{labels}={value}")
        if name.endswith("_bucket") and ftype == "histogram":
            le, rest = le_of(labels)
            if le is None:
                errors.append(f"{origin}: _bucket without le: {name}{labels}")
                continue
            buckets.setdefault((family, rest), []).append((le, value))

    for (family, rest), series in buckets.items():
        series.sort()
        prev = -1.0
        for le, value in series:
            if value < prev:
                errors.append(
                    f"{origin}: {family}_bucket{rest} not cumulative at "
                    f'le="{le}": {value} < {prev}'
                )
            prev = value
        if not series or not math.isinf(series[-1][0]):
            errors.append(f"{origin}: {family}{rest} has no +Inf bucket")
            continue
        count = samples.get((family + "_count", rest))
        if count is None:
            errors.append(f"{origin}: {family}{rest} has no _count")
        elif count != series[-1][1]:
            errors.append(
                f"{origin}: {family}_count{rest}={count} != "
                f"+Inf bucket {series[-1][1]}"
            )
        if (family + "_sum", rest) not in samples:
            errors.append(f"{origin}: {family}{rest} has no _sum")


def check_monotone(base_types, base_samples, types, samples, errors):
    for (name, labels), base_value in base_samples.items():
        family, ftype = family_of(name, base_types)
        if ftype not in ("counter", "histogram") or name.endswith("_sum"):
            continue  # gauges move freely; float _sum can jitter vs scale
        if (name, labels) in samples:
            now = samples[(name, labels)]
            if now < base_value:
                errors.append(
                    f"monotonicity: {name}{labels} went backwards: "
                    f"{base_value} -> {now}"
                )
        elif not name.endswith("_bucket"):
            # Empty buckets are elided, so a bucket line may legitimately
            # appear only once; whole counters must never vanish.
            errors.append(f"monotonicity: {name}{labels} disappeared")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    errors = []
    with open(argv[1], encoding="utf-8") as f:
        types, samples = parse(f.read(), errors, argv[1])
    if not samples:
        errors.append(f"{argv[1]}: no samples at all")
    check_structure(types, samples, errors, argv[1])
    if len(argv) == 3:
        with open(argv[2], encoding="utf-8") as f:
            base_types, base_samples = parse(f.read(), errors, argv[2])
        check_structure(base_types, base_samples, errors, argv[2])
        check_monotone(base_types, base_samples, types, samples, errors)
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        histograms = sum(1 for t in types.values() if t == "histogram")
        print(
            f"ok: {len(samples)} samples, {len(types)} families "
            f"({histograms} histograms)"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
