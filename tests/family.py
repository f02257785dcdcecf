"""Shared synthetic family for the acceptance suite and ordering tests.

The anomaly plan has three regions:

- a sparse opening whose 12th event pushes the prefix anomaly rate across
  0.10, so the smallest supervised training prefix already contains four
  events of every kind;
- a nearly solid climb of long spike-train / burst events (every interior
  step is locally identifiable; 2-step gaps) that lifts the prefix rate
  through 0.20/0.30/0.40 while spending little extra anomaly mass, with one
  short level shift after each crossing so every increment mixes kinds;
- a sparse tail carrying the remaining mass, so the post-climb evaluation
  segment keeps a workable anomaly rate.

Total mass is exactly 10% of T=20000. Spike/shift magnitudes are directional
(common-mode offsets a supervised model can exploit) while staying inside the
normal joint distribution pointwise, which is what separates supervised from
distance-based unsupervised detectors on this family.
"""

import numpy as np

from standbench import bench, data

MAGS = {"spike": 6.0, "level_shift": 1.8, "variance_burst": 4.0}
OPEN_DURS = {"spike": 8, "level_shift": 28, "variance_burst": 19}
TAIL_DURS = {"spike": 18, "level_shift": 46, "variance_burst": 18}
KINDS = ["spike", "level_shift", "variance_burst"]

THRESHOLDS = (0.10, 0.20, 0.30, 0.40)


def build_plan(T=20000, total_mass=2000):
    events, cursor, mass = [], 250, 0
    for i in range(12):
        kind = KINDS[i % 3]
        dur = OPEN_DURS[kind]
        margin = 0.104 if i == 11 else 0.096  # last opening event crosses 0.10
        min_end = int(np.ceil((mass + dur) / margin))
        start = max(cursor + 20, min_end - dur)
        events.append((kind, start, dur))
        cursor, mass = start + dur, mass + dur
    climb = ["spike", "variance_burst", "spike"]
    j = 0
    for threshold in (0.20, 0.30, 0.40):
        while mass / cursor < threshold:
            start = cursor + 2
            events.append((climb[j % 3], start, 150))
            cursor, mass = start + 150, mass + 150
            j += 1
        if threshold < 0.40:
            events.append(("level_shift", cursor + 2, 24))
            cursor, mass = cursor + 2 + 24, mass + 24
    remaining = total_mass - mass
    cycle = sum(TAIL_DURS.values())
    n_cycles = remaining // cycle
    leftover = remaining - n_cycles * cycle
    start0 = cursor + 500
    spacing = (T - 500 - start0) // max(3 * n_cycles, 1)
    k = 0
    for c in range(n_cycles):
        for kind in KINDS:
            dur = TAIL_DURS[kind] + (leftover if c == n_cycles - 1 and kind == KINDS[-1] else 0)
            events.append((kind, start0 + spacing * k, dur))
            k += 1
    return [{"kind": kd, "start": s, "duration": d, "magnitude": MAGS[kd]}
            for kd, s, d in events]


def acceptance_spec(seed: int) -> data.SyntheticSpec:
    return data.SyntheticSpec(
        T=20000, C=8, seed=100 + seed, anomalies=build_plan(),
        sine_periods=(97.0, 223.0), ar_coeff=0.6, noise_scale=0.3, name="accept",
    )


def acceptance_spec_dict(seed: int) -> dict:
    return acceptance_spec(seed).to_dict()


STAND_DETECTOR_ENTRY = {
    "kind": "stand", "input_channels": 8, "d_model": 32, "window": 32,
    "epochs": 50, "batch_size": 128, "learning_rate": 3e-3,
    "train_stride": 2, "infer_stride": 4,
}

UTAD_DETECTOR_ENTRIES = (
    {"kind": "random"},
    {"kind": "pca", "rank": 4},
    {"kind": "knn", "k": 5},
    {"kind": "kmeans", "n_clusters": 10},
)

LOGREG_DETECTOR_ENTRY = {"kind": "logreg", "learning_rate": 0.1, "epochs": 2000}

# The full, no-Bidir and no-TEM stand, labelled stand_full, stand_no_bidir and
# stand_no_tem as the ablation sweep labels them.
STAND_VARIANT_ENTRIES = tuple({**STAND_DETECTOR_ENTRY, **flags, "label": label}
                              for label, flags in bench.ABLATION_VARIANTS.items())

# The acceptance grids, one per split threshold, as a config is a full cross
# product: every detector at 0.10, and the full stand alone at 0.40.
ACCEPTANCE_DETECTORS = {
    0.10: (*UTAD_DETECTOR_ENTRIES, LOGREG_DETECTOR_ENTRY, *STAND_VARIANT_ENTRIES),
    0.40: STAND_VARIANT_ENTRIES[:1],
}


def acceptance_config(threshold: float, output_dir: str) -> bench.ExperimentConfig:
    """The acceptance grid at ``threshold``: seeds 0-4 on the acceptance family,
    default metrics."""
    return bench.ExperimentConfig.from_dict({
        "name": f"accept_{threshold:g}",
        "datasets": [{"synthetic": acceptance_spec_dict(0)}],
        "detectors": list(ACCEPTANCE_DETECTORS[threshold]),
        "split_thresholds": [threshold],
        "seeds": [0, 1, 2, 3, 4],
        "output_dir": output_dir,
    })
