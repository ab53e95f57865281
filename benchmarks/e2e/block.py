"""One block of one workload, in a fresh process.

``python3 block.py '<json spec>'``; the result is one JSON object on the
last line of standard output.  Spec keys: ``workload``, ``block``,
``seconds`` (this block's measuring budget), ``min_samples``, ``trace``,
``t_spawn`` (the parent's wall clock just before it started this
process), ``after`` (the first block's expensive oracle half, or null)
and ``plant`` (a planted slowdown, ``test_compare`` only).

A traced block alternates untraced and traced samples, so both medians
see the same drift and their ratio is the tracing overhead.  Every block
interleaves its samples with bursts of yardstick readings (about a tenth
of its time); a sample's ``speed`` is the mean of the bursts on either
side of it (see ``yardstick.py``).
"""

from __future__ import annotations

import json
import resource
import sys
import time

from sampling import judge, set_up, take_sample
from spans import SpanRecorder
from workloads import WORKLOADS, work_points
from yardstick import Yardstick

#: Seconds of sampling between two yardstick bursts (a burst takes ~45 ms).
BURST_EVERY_S = 0.4


def main() -> None:
    spec = json.loads(sys.argv[1])
    name = spec["workload"]
    rec = SpanRecorder()
    samples: list[dict] = []
    with rec.span(name), rec.span(f"block#{spec['block']}"):
        run, stub = set_up(name, rec)
        setup_s = time.time() - spec["t_spawn"]
        yard = Yardstick(WORKLOADS[name].klass)
        bursts = [yard.speed()]
        since_burst = 0.0
        deadline = time.perf_counter() + spec["seconds"]
        while len(samples) < spec["min_samples"] or time.perf_counter() < deadline:
            i = len(samples)
            samples.append(take_sample(run, stub, rec, i,
                                       traced=spec["trace"] and i % 2 == 1,
                                       plant=spec.get("plant", 0.0))[0])
            samples[-1]["burst"] = len(bursts) - 1
            since_burst += samples[-1]["wall"]
            if since_burst >= BURST_EVERY_S:
                bursts.append(yard.speed())
                since_burst = 0.0
        if since_burst:
            bursts.append(yard.speed())
    for s in samples:
        k = s.pop("burst")
        s["speed"] = (bursts[k] + bursts[k + 1]) / 2.0
    # Before the untimed oracle work below can raise the high-water mark.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = spec.get("after") or WORKLOADS[name].after()
    judge(name, samples, after)
    print(json.dumps({
        "workload": name,
        "setup_s": setup_s,
        "setup_speed": bursts[0],
        "samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "work_points": work_points(WORKLOADS[name]),
        "after": after,
        "zran3_bound": stub.bound,
        "spans": rec.spans if spec["trace"] else [],
    }))


if __name__ == "__main__":
    main()
