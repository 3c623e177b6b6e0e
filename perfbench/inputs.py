"""Seeded inputs for the benchmark workloads.

The seed draws weights, point labels and the mutated columns; it never
changes an instance's size, so every seed runs the same amount of
structure through the program.
"""

import json
import os
import random

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
SIZES = {"p2": 2, "p3": 3, "p4": 4}  # points per pair groupoid


def make_inputs(seed):
    """Everything a workload needs, as plain data; same seed, same inputs."""
    rng = random.Random(seed)

    def weights(k):
        # distinct positive integers, so a weight is never constant
        return rng.sample(range(1, 30), k)

    def prime_weights(k):
        # products of two distinct primes, all primes distinct: every
        # ratio mu(t)/mu(s) needs a square root of a new square-free kernel
        ps = rng.sample(PRIMES, 2 * k)
        return [ps[2 * i] * ps[2 * i + 1] for i in range(k)]

    points = {name: rng.sample(range(1, 100), k) for name, k in SIZES.items()}
    return {
        "seed": seed,
        "points": points,
        "mu": {
            "p2": weights(2),
            "p3a": weights(3),
            "p3b": weights(3),
            "p4": weights(4),
            "z2": weights(1),
            "conv_p3": weights(3),
            "crossed": weights(2),
            "twosided": weights(2),
        },
        "radical": {"p3": prime_weights(3), "p4": prime_weights(4)},
        "omit_root": rng.randrange(3),
        "antipode_col": rng.randrange(9),
        "counit_unit": rng.randrange(3),
        "scale": rng.choice((2, 3, 5)),
    }


def write_groupoids(qg, inputs, directory):
    """Write the groupoid JSON files the CLI jobs read; returns their paths."""
    from qgroupoid.examples import cyclic_group_table

    groupoids = {
        name: qg.pair_groupoid(pts) for name, pts in inputs["points"].items()
    }
    groupoids["z2"] = qg.group_groupoid(*cyclic_group_table(2))
    paths = {}
    for name, g in groupoids.items():
        path = os.path.join(directory, "%s.json" % name)
        with open(path, "w") as fh:
            json.dump(qg.groupoid_to_json(g), fh, sort_keys=True)
        paths[name] = path
    return paths
