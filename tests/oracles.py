"""Brute-force reference implementations of every sample extractor.

Deliberately naive and structured differently from the package code
(per-failure backward searches, nested scans) so agreement is a real
cross-check and not a shared bug. Never imported by the package.
"""

EPS = 1e-9


def _node_events(run, node):
    return [e for e in run.events if e.node == node]


def _is_verify(e, anchor_mode):
    if anchor_mode == "calibration":
        return e.op == "calibrate" and e.outcome == "success"
    return (e.op == "check_data" and e.outcome == "pass") or (
        e.op == "calibrate" and e.outcome == "success"
    )


def _is_failure(e, use_oracle):
    if use_oracle:
        return e.op == "oracle_out_of_spec"
    return e.op == "check_data" and e.outcome == "fail"


def oracle_ttf(dataset, node, anchor_mode="verification", use_oracle=False):
    """For each failure, search backward for the latest verification with
    no failure in between. Censored = a verification with no later failure."""
    samples, censored = [], 0
    for run in dataset.runs:
        evs = _node_events(run, node)
        fail_idx = [i for i, e in enumerate(evs) if _is_failure(e, use_oracle)]
        verify_idx = [i for i, e in enumerate(evs) if _is_verify(e, anchor_mode)]
        for i in fail_idx:
            earlier = [j for j in verify_idx if j < i]
            if not earlier:
                continue
            j = max(earlier)
            blocked = any(j < k < i for k in fail_idx)
            if not blocked:
                samples.append(float(evs[i].time - evs[j].time))
        last_fail = max(fail_idx) if fail_idx else -1
        if any(j > last_fail for j in verify_idx):
            censored += 1
    return samples, censored


def oracle_failures(dataset, node, window):
    samples = []
    for run in dataset.runs:
        total = run.meta.total_cycles
        for k in range(total // window):
            lo, hi = k * window, (k + 1) * window
            count = len(
                [
                    e
                    for e in run.events
                    if e.node == node
                    and e.op == "check_data"
                    and e.outcome == "fail"
                    and lo <= e.time < hi
                ]
            )
            samples.append(float(count))
    return samples


def oracle_param(dataset, node, name, when="after"):
    samples = []
    saw_calibrate = False
    for run in dataset.runs:
        for e in run.events:
            if e.node != node or e.op != "calibrate":
                continue
            saw_calibrate = True
            pairs = e.params_before if when == "before" else e.params_after
            d = dict(pairs or ())
            if name in d:
                samples.append(d[name])
    return samples, saw_calibrate


def oracle_time_between(dataset, node, which):
    samples = []
    for run in dataset.runs:
        if which == "calibrate":
            ts = [e.time for e in run.events if e.node == node and e.op == "calibrate"]
        else:
            ts = [
                e.time
                for e in run.events
                if e.node == node and e.op == "check_data" and e.outcome == "fail"
            ]
        for i in range(1, len(ts)):
            samples.append(float(ts[i] - ts[i - 1]))
    return samples


def oracle_pct_time(dataset, node, op):
    samples = []
    for run in dataset.runs:
        if run.meta.total_cycles <= 0:
            continue
        busy = 0
        for e in run.events:
            if e.node == node and e.op == op:
                busy += e.duration
        samples.append(busy / run.meta.total_cycles)
    return samples


def _pattern_matches(e, kind, node, param=None, by=None):
    if e.node != node:
        return False
    if kind == "fail":
        return e.op == "check_data" and e.outcome == "fail"
    if kind == "calibrate":
        return e.op == "calibrate"
    if kind == "shift":
        if e.op != "calibrate":
            return False
        before = dict(e.params_before or ())
        after = dict(e.params_after or ())
        if param not in before or param not in after:
            return False
        denom = abs(before[param])
        if denom < EPS:
            denom = EPS
        return abs(after[param] - before[param]) / denom > by
    raise AssertionError(kind)


def oracle_condition(dataset, trigger, response, window):
    """trigger/response: dicts with kind/node and optional param/by."""
    out = []
    for run in dataset.runs:
        for trig in run.events:
            if not _pattern_matches(trig, **trigger):
                continue
            t = trig.time
            if window == "next_check":
                checks = sorted(
                    e.time
                    for e in run.events
                    if e.node == response["node"] and e.op == "check_data" and e.time > t
                )
                if checks:
                    hi = checks[0]
                else:
                    hi = run.meta.total_cycles
                    for e in run.events:
                        hi = max(hi, e.time)
            else:
                hi = t + window
            hit = False
            for e in run.events:
                if t < e.time <= hi and _pattern_matches(e, **response):
                    hit = True
            out.append(hit)
    return out


def _availability_flips(run, ground_truth):
    """(cycle, in_spec) status changes in event order."""
    flips = []
    for e in run.events:
        if ground_truth:
            if e.op == "oracle_out_of_spec":
                flips.append((e.node, e.time, False))
            elif e.op == "drift_sample":
                flips.append((e.node, e.time, e.outcome == "pass"))
        elif e.op == "check_data":
            if e.outcome == "fail":
                flips.append((e.node, e.time, False))
            else:
                flips.append((e.node, e.time + e.duration, True))
        elif e.op == "calibrate" and e.outcome == "success":
            flips.append((e.node, e.time + e.duration, True))
    return flips


def oracle_availability(run, ground_truth):
    """Cycle by cycle: a cycle is lost if some check or calibration runs
    in it or some node is out of spec. A node's status at a cycle is that
    of its latest flip at or before the cycle; among flips at the same
    cycle, the last in event order wins. Nodes start in spec."""
    flips = _availability_flips(run, ground_truth)
    total = run.meta.total_cycles
    free = 0
    for c in range(total):
        busy = any(
            e.op in ("check_data", "calibrate") and e.time <= c < e.time + e.duration
            for e in run.events
        )
        latest = {}
        for node, when, in_spec in flips:
            if when <= c and (node not in latest or when >= latest[node][0]):
                latest[node] = (when, in_spec)
        out = any(not in_spec for _, in_spec in latest.values())
        if not busy and not out:
            free += 1
    return free / total
