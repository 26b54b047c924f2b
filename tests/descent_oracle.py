"""Test-only oracle: the top-down descent with one solve per parent.

The descent of ``topdown.release`` as it stood before each stream's level was
noised and solved in one pass. Every positive parent, in sorted key order,
draws its children's noise in one sampler call from its stream and is solved
alone, right away, by ``solve(noisy, total, order, rng)``. Above the block
frontier (the first depth whose released level holds ``block_nodes`` nodes)
each parent has its own substream; below it each frontier node's block stream
serves its subtree, depth by depth. Not imported by the package.
"""

from inftda.dpcore import per_level_sigma2, sample_discrete_gaussian, substream
from inftda.hierarchy import ROOT_AREA


def per_parent_release(tree, config, solve, block_nodes):
    """The released levels of ``tree`` under ``config``, root first."""
    sens = config.sensitivity
    sigma2 = per_level_sigma2(config.budget, sens, tree.depth)
    if sens.privacy == "unbounded":
        root = max(0, tree.n + sample_discrete_gaussian(sigma2, substream(config.seed, "root")))
    else:
        root = tree.n
    levels = [{(ROOT_AREA, ROOT_AREA): root}]

    def expand(parents, depth, block):
        true_map = tree.levels[depth]
        current = {}
        for key in sorted(parents):
            total = parents[key]
            if total <= 0:
                continue
            children = tree.child_keys([key], depth - 1)[0]
            rng = block or substream(config.seed, depth - 1, key[0], key[1])
            noise = sample_discrete_gaussian(sigma2, rng, size=len(children))
            noisy = [true_map.get(child, 0) + z for child, z in zip(children, noise)]
            for child, value in zip(children, solve(noisy, total, config.order, rng)):
                if value > 0:
                    current[child] = int(value)
        return current

    depth = 1
    while depth <= tree.depth and len(levels[-1]) < block_nodes:
        levels.append(expand(levels[-1], depth, None))
        depth += 1
    frontier = levels[-1]
    below = [{} for _ in range(depth, tree.depth + 1)]
    for key in sorted(frontier):
        block = substream(config.seed, "block", depth - 1, key[0], key[1])
        parents = {key: frontier[key]}
        for i, level in enumerate(below):
            parents = expand(parents, depth + i, block)
            level.update(parents)
    return levels + below
