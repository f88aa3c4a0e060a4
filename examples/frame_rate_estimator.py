#!/usr/bin/env python
"""The FRPU in action: learning, predicting, and re-learning (Fig. 4).

Renders a GPU-only workload whose scene complexity changes abruptly
mid-sequence (we switch the frame generator's jitter and tile budget),
and logs the predictor's phase transitions and per-frame estimation
error — the behaviour sketched in the paper's Fig. 4 and measured in
its Fig. 8.

    python examples/frame_rate_estimator.py [--game Quake4]
"""

import argparse

from repro.config import default_config
from repro.mixes import Mix
from repro.policies import make_policy
from repro.predict.rtp import Phase
from repro.sim.system import HeterogeneousSystem


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--game", default="Quake4")
    ap.add_argument("--scale", default="smoke",
                    choices=["smoke", "test", "bench", "paper"])
    args = ap.parse_args()

    cfg = default_config(scale=args.scale, n_cpus=0)
    pol = make_policy("estimate")      # FRPU active, ATU never engages
    system = HeterogeneousSystem(cfg, Mix("demo", args.game, ()), pol)

    # inject a scene change: halfway through the sequence the frames
    # suddenly carry ~50% more tiles (a heavier scene)
    gen = system.gpu.frames
    orig = gen.next_frame
    cut = cfg.scale.max_frames // 2

    def next_frame(index):
        if index == cut:
            gen.tiles_per_rtp = int(gen.tiles_per_rtp * 1.5)
        return orig(index)
    gen.next_frame = next_frame

    system.run()
    frpu = pol.qos.frpu

    print(f"{args.game}: {system.gpu.frames_completed} frames rendered, "
          f"scene change injected at frame {cut}")
    print(f"frames learned:   {frpu.frames_learned}")
    print(f"frames predicted: {frpu.frames_predicted}")
    print("phase transitions (frame -> phase):")
    for idx, phase in frpu.phase_transitions:
        marker = "  <- re-learning after the scene change" \
            if phase is Phase.LEARNING else ""
        print(f"  frame {idx:3d}: {phase.value}{marker}")
    errs = frpu.percent_errors()
    if errs:
        print("per-frame estimation error (%):",
              ", ".join(f"{e:+.2f}" for e in errs))
        print(f"mean |error| = {frpu.mean_abs_percent_error():.2f}%  "
              f"(paper: < 1% on warmed steady scenes)")


if __name__ == "__main__":
    main()
