"""One guarded SQUAREM ascent, shared by both minorization loops.

Both closed-form minorization loops iterate a map F that never lowers
their objective f: the phase step F(theta) = exp(j arg nu(theta)) of
``irs.solve_irs_minorization`` and the unit-diagonal step
F(Z) = normalize_cols(Z E M E^H) of ``ratio.solve_unit_diag_relaxation``.
Both converge linearly, and slowly where F contracts weakly.  A SQUAREM
cycle (Varadhan & Roland, Scand. J. Stat. 35, 2008; with MM for
unit-modulus design, Song, Babu & Palomar, IEEE TSP 63, 2015) takes two
maps, r = F(x) - x and v = F(F(x)) - 2 F(x) + x, the steplength
alpha = min(-||r|| / ||v||, -1) and one map at the extrapolated point
x' = normalize(x - 2 alpha r + alpha^2 v).  F(x') is kept only if
f(F(x')) >= f(F(F(x))), else F(F(x)) is, so the ascent stays monotone by
construction whatever the extrapolation does.
"""

from __future__ import annotations

import math

import numpy as np


def squarem_ascent(start: tuple, step, project, converged, max_maps: int
                   ) -> tuple[tuple, list[float]]:
    """Ascend from ``start`` by guarded SQUAREM cycles of the map ``step``.

    Points are tuples (x, f, ...): the iterate x, its objective f, then
    what the caller needs to take a step from it.  ``step(point)`` is the
    point F(x); it may reuse the storage of the point's trailing entries,
    but not of x, which the cycle reads afterwards.  ``project(x, near)``
    is the point at the raw array x normalized onto the feasible set,
    ``near`` the latest point (for entries that cannot be normalized).

    The ascent stops once ``converged(x, F(x))`` holds for one of the
    plain maps between kept points (both maps of a cycle, not the one
    from the extrapolated point), so it stops at the stationarity at which
    F iterated alone stops; with every extrapolation rejected, it keeps
    the plain iterates and stops where they do.  At most
    ``max_maps`` maps run; a cycle counts as three, and where fewer than
    three are left the remaining maps are plain, so a cap of 1 or 2 runs
    F alone.

    Returns the last point and the objectives of the kept points in order
    (start first); each is at least the one before it as far as ``step``
    ascends.
    """
    point, values, left = start, [start[1]], max_maps
    while left > 0:
        one = step(point)
        values.append(one[1])
        if converged(point, one):
            return one, values
        left -= 1
        if left < 2:            # no room for the rest of a cycle
            point = one
            continue
        two = step(one)
        values.append(two[1])
        if converged(one, two):
            return two, values
        left -= 2
        r = one[0] - point[0]
        v = two[0] - one[0]
        v -= r
        norm_v = math.sqrt(np.vdot(v, v).real)
        if norm_v > 0.0:
            alpha = min(-math.sqrt(np.vdot(r, r).real) / norm_v, -1.0)
            r *= -2.0 * alpha
            v *= alpha * alpha
            v += r
            v += point[0]
            three = step(project(v, two))
            if three[1] >= two[1]:
                values.append(three[1])
                two = three
        point = two
    return point, values
