"""The benchmark's workloads: `fraclap run` configs built from a seed.

The seed goes into the config `seed` (which draws the data of every
experiment) and into the random_geometric fixture seed.  README.md in this
directory says why each workload was chosen.
"""

from __future__ import annotations

# workload -> (experiment kind, metric): the maximum of that metric over the
# run's jobs of that kind is the workload's accuracy_err
WORKLOADS = {
    "routes-grid400": ("dirichlet_routes", "gap_over_osc"),
    "kernels-rgg400": ("heat_properties", "subordination_err"),
}


def make_config(workload: str, seed: int) -> dict:
    """The `fraclap run` config of `workload` for `seed`."""
    if workload == "routes-grid400":
        return {
            "space": {"fixture": {"kind": "grid2d", "params": {"nx": 20}}},
            "theta": [0.25, 0.5, 0.75],
            "seed": seed,
            "experiments": [{"kind": "dirichlet_routes", "params": {"m": 32}}],
        }
    if workload == "kernels-rgg400":
        # radius 0.15 at n=400: seeds 0-199 all give connected graphs with
        # max degree <= 53, so beta*t <= 53*4 = 212 stays under the series
        # route's guard of 600 (README.md)
        return {
            "space": {
                "fixture": {
                    "kind": "random_geometric",
                    "params": {"n": 400, "radius": 0.15, "seed": seed},
                }
            },
            "theta": [0.25, 0.75],
            "seed": seed,
            "experiments": [
                {"kind": "heat_properties", "params": {"ts": [0.1, 1.0, 4.0]}},
                {"kind": "energy_comparability", "params": {"family_size": 10}},
                {"kind": "max_principle_batch", "params": {"n_seeds": 20}},
            ],
        }
    raise KeyError(workload)


def n_jobs(config: dict) -> int:
    """Jobs one run of `config` attempts: heat_properties runs once, every
    other kind once per theta."""
    n_theta = len(config["theta"])
    return sum(
        1 if exp["kind"] == "heat_properties" else n_theta for exp in config["experiments"]
    )
