"""Straight-line re-implementation of the dispatch passes, used as an oracle.

Deliberately kept apart from the package: 1-based indices, bare while
loops, no shared helpers, no numpy.  Inputs are plain parallel lists
ordered from the feeder end toward the bank (index 1 = farthest device).
tree_dispatch runs both passes on a trunk with laterals joined straight
to it, each segment described by the same kind of lists.
test_dispatch.py and the acceptance suite compare production output
against these functions element-wise.
"""
import math

DERATE = 0.9
PF_MIN = 0.9


def q_limit(p):
    over = p / PF_MIN
    return math.sqrt(over * over - p * p)


def active_pass(xi_sta, lo_raw, hi_raw, xi_load, p_load, p_ref):
    """Far-to-near absorb/clamp/forward sweep plus bank-out refinement.

    Returns (p far-to-near, leftover).
    """
    n = len(xi_sta)
    m = len(xi_load)
    p = [0.0] * (n + 1)
    lo = [0.0] * (n + 1)
    hi = [0.0] * (n + 1)
    k = 1
    while k <= n:
        lo[k] = DERATE * lo_raw[k - 1]
        hi[k] = DERATE * hi_raw[k - 1]
        k += 1
    carry = 0.0
    i = 1
    j = 1
    while i <= n:
        p[i] = carry
        carry = 0.0
        while j <= m and xi_load[j - 1] > xi_sta[i - 1]:
            p[i] = p[i] - p_load[j - 1]
            if p[i] > hi[i]:
                carry = p[i] - hi[i]
                p[i] = hi[i]
                j = j + 1
                break
            if p[i] < lo[i]:
                carry = p[i] - lo[i]
                p[i] = lo[i]
                j = j + 1
                break
            j = j + 1
        p_ref = p_ref - p[i]
        i = i + 1
    i = n
    while p_ref != 0.0 and i >= 1:
        if p[i] + p_ref > hi[i]:
            p_ref = p_ref - hi[i] + p[i]
            p[i] = hi[i]
            i = i - 1
        elif p[i] + p_ref < lo[i]:
            p_ref = p_ref - lo[i] + p[i]
            p[i] = lo[i]
            i = i - 1
        else:
            p[i] = p[i] + p_ref
            p_ref = 0.0
    return p[1:], p_ref


def refine_pass(p_in, lo_raw, hi_raw, p_ref):
    """Only the bank-out refinement, on an existing far-to-near dispatch."""
    n = len(p_in)
    p = [0.0] + list(p_in)
    i = n
    while p_ref != 0.0 and i >= 1:
        hi = DERATE * hi_raw[i - 1]
        lo = DERATE * lo_raw[i - 1]
        if p[i] + p_ref > hi:
            p_ref = p_ref - hi + p[i]
            p[i] = hi
            i = i - 1
        elif p[i] + p_ref < lo:
            p_ref = p_ref - lo + p[i]
            p[i] = lo
            i = i - 1
        else:
            p[i] = p[i] + p_ref
            p_ref = 0.0
    return p[1:], p_ref


def reactive_pass(p, xi_sta, xi_load, p_load, g, b):
    """Per-load overwrite with clamp-and-forward.  Returns q far-to-near."""
    n = len(xi_sta)
    m = len(xi_load)
    q = [0.0] * (n + 1)
    carry = 0.0
    i = 1
    j = 1
    while i <= n:
        q[i] = carry
        carry = 0.0
        cap = q_limit(p[i - 1])
        low = -cap
        while j <= m and xi_load[j - 1] > xi_sta[i - 1]:
            q[i] = g / b * (p[i - 1] - p_load[j - 1])
            if q[i] > cap:
                carry = q[i] - cap
                q[i] = cap
                j = j + 1
                break
            if q[i] < low:
                carry = q[i] - low
                q[i] = low
                j = j + 1
                break
            j = j + 1
        i = i + 1
    return q[1:]


def principle_pass(p, xi_sta, xi_load, p_load, q_load, g, b, xi_tap=(), s_tap=()):
    """Principle-mode Q on one segment, walked far-to-near.

    Each station's q drives the running sum of g*P + b*Q over everything
    beyond it to zero, clamped to +-q_limit(p).  Beyond a station lie the
    loads and child taps at or past its position; at one position a tap
    comes before a load.  Child tap t (taps far-to-near) adds s_tap[t], the
    whole sum of that child's subtree.  Returns (q far-to-near, the sum over
    the segment and everything beyond it).
    """
    n = len(xi_sta)
    m = len(xi_load)
    t = len(xi_tap)
    q = [0.0] * (n + 1)
    run = 0.0
    i = 1
    j = 1
    k = 1
    while i <= n + 1:
        # what lies at or beyond station i; past the last station, the rest
        while True:
            tap = k <= t and (i > n or xi_tap[k - 1] >= xi_sta[i - 1])
            load = j <= m and (i > n or xi_load[j - 1] >= xi_sta[i - 1])
            if tap and (not load or xi_tap[k - 1] >= xi_load[j - 1]):
                run = run + s_tap[k - 1]
                k = k + 1
            elif load:
                run = run + (g * p_load[j - 1] + b * q_load[j - 1])
                j = j + 1
            else:
                break
        if i <= n:
            cap = q_limit(p[i - 1])
            q[i] = -(run + g * p[i - 1]) / b
            if -cap > q[i]:
                q[i] = -cap
            if cap < q[i]:
                q[i] = cap
            run = run + (g * p[i - 1] + b * q[i])
        i = i + 1
    return q[1:], run


def _tree_forward(legs, bound, step):
    """The far-to-near clamp-and-forward pass over each leg in turn.

    Station i of leg l (1-based, far-to-near) starts from what laterals
    handed it plus the residual of the station before it, then takes up
    the loads strictly beyond it, value = step(l, i, value, j) for load j,
    until the value leaves bound(l, i) = (lo, hi): there it clamps and
    forwards the excess.  A residual left at a lateral's near end goes to
    the trunk's farthest station at or nearer than the junction; with no
    such station, or at the trunk's near end, it is dropped.
    Returns, per leg, (values, seeds), 1-based.
    """
    trunk = legs[-1]
    nt = len(trunk["stations"])
    handed = [0.0] * (nt + 1)
    out = []
    l = 0
    while l < len(legs):
        leg = legs[l]
        sta = leg["stations"]
        loads = leg["loads"]
        n = len(sta)
        m = len(loads)
        v = [0.0] * (n + 1)
        seed = [0.0] * (n + 1)
        carry = 0.0
        i = 1
        j = 1
        while i <= n:
            if l == len(legs) - 1:
                seed[i] = handed[i]
            if carry != 0.0:
                seed[i] = seed[i] + carry
                carry = 0.0
            v[i] = seed[i]
            lo, hi = bound(l, i)
            while j <= m and loads[j - 1][0] > sta[i - 1][1]:
                v[i] = step(l, i, v[i], j)
                j = j + 1
                if v[i] > hi:
                    carry = v[i] - hi
                    v[i] = hi
                    break
                if v[i] < lo:
                    carry = v[i] - lo
                    v[i] = lo
                    break
            i = i + 1
        if carry != 0.0 and l < len(legs) - 1:
            t = 1
            while t <= nt and trunk["stations"][t - 1][1] > leg["at"]:
                t = t + 1
            if t <= nt:
                handed[t] = handed[t] + carry
        out.append((v, seed))
        l = l + 1
    return out


def tree_dispatch(legs, p_ref, mode):
    """Both passes on a trunk with laterals joined straight to it.

    legs lists the laterals, then the trunk: each a dict of g, b, the
    stations (id, xi, lo_raw, hi_raw) and loads (xi, p, q), both
    far-to-near with xi measured from the bank, and for a lateral `at`,
    its junction's xi.  The refinement walks every station bank-nearest
    first (by xi, then id) after taking off each pass-one value in the
    order the pass set them.  Returns ({station id: (p, q, q seed)},
    leftover); principle mode seeds nothing.
    """
    def lo_hi(l, i):
        st_ = legs[l]["stations"][i - 1]
        return DERATE * st_[2], DERATE * st_[3]

    p = [v for v, _seed in _tree_forward(legs, lo_hi,
                                         lambda l, i, v, j: v - legs[l]["loads"][j - 1][1])]
    flat = []
    l = 0
    while l < len(legs):
        i = 1
        while i <= len(legs[l]["stations"]):
            p_ref = p_ref - p[l][i]
            flat.append((legs[l]["stations"][i - 1][1], legs[l]["stations"][i - 1][0], l, i))
            i = i + 1
        l = l + 1
    flat.sort()
    k = 0
    while p_ref != 0.0 and k < len(flat):
        _xi, _id, l, i = flat[k]
        lo, hi = lo_hi(l, i)
        if p[l][i] + p_ref > hi:
            p_ref = p_ref - hi + p[l][i]
            p[l][i] = hi
        elif p[l][i] + p_ref < lo:
            p_ref = p_ref - lo + p[l][i]
            p[l][i] = lo
        else:
            p[l][i] = p[l][i] + p_ref
            p_ref = 0.0
        k = k + 1
    if mode == "literal":
        def cone(l, i):
            cap = q_limit(p[l][i])
            return -cap, cap

        def overwrite(l, i, _v, j):
            return legs[l]["g"] / legs[l]["b"] * (p[l][i] - legs[l]["loads"][j - 1][1])

        q = _tree_forward(legs, cone, overwrite)
    else:
        q = []
        taps = []
        l = 0
        while l < len(legs):
            leg = legs[l]
            xi_tap = [at for at, _s in taps] if l == len(legs) - 1 else []
            s_tap = [s for _at, s in taps] if l == len(legs) - 1 else []
            q_leg, total = principle_pass(
                p[l][1:], [s[1] for s in leg["stations"]], [d[0] for d in leg["loads"]],
                [d[1] for d in leg["loads"]], [d[2] for d in leg["loads"]],
                leg["g"], leg["b"], xi_tap, s_tap)
            q.append(([0.0] + q_leg, [0.0] * (len(q_leg) + 1)))
            if l < len(legs) - 1:
                # taps far-to-near; at one junction, in the order given
                t = 0
                while t < len(taps) and taps[t][0] >= leg["at"]:
                    t = t + 1
                taps.insert(t, (leg["at"], total))
            l = l + 1
    out = {}
    l = 0
    while l < len(legs):
        i = 1
        while i <= len(legs[l]["stations"]):
            out[legs[l]["stations"][i - 1][0]] = (p[l][i], q[l][0][i], q[l][1][i])
            i = i + 1
        l = l + 1
    return out, p_ref
