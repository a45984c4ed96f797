"""Corpus sweep helpers: every cross-cutting law the modules promise,
expressed as checks that return a list of failure descriptions.

Used by both the fast sweeps (sizes up to 5) and the acceptance suite
(sizes up to 6/7); keeping one implementation means the two runs cannot
drift apart.
"""

from __future__ import annotations

from chainmail.connectivity import (
    ConnectivityPair,
    absolutely_connected_elements,
    cl0,
    cl1,
    cl1_half,
    cl1_prime,
    cl2,
    cl3,
    classify,
    components,
    e1,
    e2,
    e3,
    e4,
    galois_adjunction_holds,
    is_subchainmail_of,
    kernel,
    sigma_closure,
    sigma_members,
)
from chainmail.exterior import exterior
from chainmail.poset import FinitePoset, mask_of

from conftest import (
    dc_sets,
    oracle_every_connected_set_has_join,
    oracle_every_mail_connected_set_has_join,
    oracle_every_upset_complete,
    oracle_is_chainmail_all_mails,
    oracle_join_mask,
)


def check_chainmail_equivalences(p: FinitePoset) -> list:
    """The five equivalent chainmail formulations, computed independently."""
    verdicts = {
        "reduced-mail test": p.is_chainmail(),
        "all-mails oracle": oracle_is_chainmail_all_mails(p),
        "mail-connected-sets oracle": oracle_every_mail_connected_set_has_join(p),
        "connected-sets oracle": oracle_every_connected_set_has_join(p),
        "up-sets-complete oracle": oracle_every_upset_complete(p),
    }
    if len(set(verdicts.values())) == 1:
        return []
    return [f"chainmail formulations disagree on {p!r}: {verdicts}"]


def check_exterior_laws(p: FinitePoset) -> list:
    """Exterior completeness vs chainmail; for chainmails the
    reconstruction isomorphism and the singleton round-trip."""
    from chainmail.exterior import (
        downclosed_subchainmails,
        downset_to_tmd,
        exterior_as_absolute,
        inclusion_poset,
        tmd_to_downset,
    )

    failures = []
    fam = exterior(p)
    complete = fam.order.is_complete_lattice()
    chainmail = p.is_chainmail()
    if complete != chainmail:
        failures.append(f"exterior completeness mismatch on {p!r}")
    if not chainmail:
        return failures

    downsets = downclosed_subchainmails(p)
    if len(downsets) != len(fam.sets):
        failures.append(f"reconstruction family sizes differ on {p!r}")
    if not inclusion_poset(downsets).is_isomorphic(fam.order):
        failures.append(f"reconstruction order not isomorphic on {p!r}")
    down_map = {}
    for s in fam.sets:
        ds = tmd_to_downset(p, s)
        down_map[s] = ds
        if downset_to_tmd(p, ds) != s:
            failures.append(f"reconstruction round-trip broken at {sorted(s)} on {p!r}")
    # the forward map must be an order-embedding onto the down-set family
    if set(down_map.values()) != set(downsets):
        failures.append(f"forward reconstruction map misses targets on {p!r}")
    for i, s in enumerate(fam.sets):
        for j, t in enumerate(fam.sets):
            if fam.order.leq(i, j) != (down_map[s] <= down_map[t]):
                failures.append(f"forward reconstruction map not an order-embedding on {p!r}")
                break

    pair = exterior_as_absolute(p)
    e4_set = absolutely_connected_elements(pair.lattice)
    if e4_set != pair.connected:
        failures.append(f"exterior absolutely-connected elements are not the singletons on {p!r}")
    induced = FinitePoset.induced(pair.lattice, sorted(pair.connected))
    if not induced.is_isomorphic(p):
        failures.append(f"singleton chainmail not isomorphic to the base on {p!r}")
    return failures


def check_exterior_union_joins(p: FinitePoset) -> list:
    """Families of pairwise-disjoint non-empty TMD sets with TMD union have
    their exterior join given by plain union."""
    failures = []
    fam = exterior(p)
    k = len(fam.sets)
    if k > 16:
        return failures
    for pick in range(1 << k):
        chosen = [fam.sets[i] for i in range(k) if pick >> i & 1]
        if any(not s for s in chosen):
            continue
        union = set()
        ok = True
        for s in chosen:
            if union & s:
                ok = False
                break
            union |= s
        if not ok or not p.is_totally_mail_disconnected(union):
            continue
        indices = {i for i in range(k) if pick >> i & 1}
        j = oracle_join_mask(fam.order.n, fam.order.up, mask_of(indices))
        if j is None or fam.sets[j] != frozenset(union):
            failures.append(f"disjoint-family join is not the union on {p!r}")
            break
    return failures


def _tmd_in_lplus(lat: FinitePoset, members) -> bool:
    bot = lat.bottom()
    members = list(members)
    if any(m == bot for m in members):
        return False
    botbit = 1 << bot
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if lat.down[a] & lat.down[b] != botbit:
                return False
    return True


def check_lattice_invariants(lat: FinitePoset) -> list:
    """Per-lattice laws: the E-condition ladder, the canonical pair built
    from the absolutely connected elements, and the atomic/Boolean
    characterization."""
    failures = []
    bot = lat.bottom()

    flags = {a: (e1(lat, a), e2(lat, a), e3(lat, a), e4(lat, a)) for a in range(lat.n)}
    for a, (f1, f2, f3, f4) in flags.items():
        if f4 and not (f3 and f1):
            failures.append(f"E4 does not force E3/E1 at {a} on {lat!r}")
        if (f3 or f1) and not f2:
            failures.append(f"E3/E1 does not force E2 at {a} on {lat!r}")
    if flags.get(bot, (False,) * 4)[2] or flags.get(bot, (False,) * 4)[3]:
        failures.append(f"bottom satisfies a strong E condition on {lat!r}")

    e4_set = absolutely_connected_elements(lat)
    pair = ConnectivityPair(lat, e4_set)
    report = classify(pair)
    if not report.typical:
        failures.append(f"absolutely-connected pair is not typical on {lat!r}")
    for s in dc_sets(pair):
        j = oracle_join_mask(lat.n, lat.up, mask_of(s))
        galois_closed = frozenset(components(pair, j)) == s
        if galois_closed != _tmd_in_lplus(lat, s):
            failures.append(f"Galois-closed TMD characterization fails at {sorted(s)} on {lat!r}")
    if report.well_founded and not report.separated:
        failures.append(f"well-founded absolutely-connected pair not separated on {lat!r}")

    atoms = frozenset(a for a in range(lat.n) if lat.down[a] == (1 << a) | (1 << bot) and a != bot)
    atomistic = all(
        oracle_join_mask(lat.n, lat.up, mask_of(atoms) & lat.down[x]) == x for x in range(lat.n)
    )
    if atomistic:
        boolean = lat.is_distributive() and all(
            any(
                oracle_join_mask(lat.n, lat.up, (1 << x) | (1 << y)) == lat.top()
                and lat.down[x] & lat.down[y] == 1 << bot
                for y in range(lat.n)
            )
            for x in range(lat.n)
        )
        absolute_on_e4 = report.absolute
        if not ((absolute_on_e4 == (e4_set == atoms) == boolean)):
            failures.append(
                f"atomic characterization fails on {lat!r}: absolute={absolute_on_e4} "
                f"e4=atoms={e4_set == atoms} boolean={boolean}"
            )
    # one direction needs no atom hypothesis: atom-generated absoluteness
    # aside, a well-founded absolutely-connected pair makes atoms connected
    if report.well_founded and not atoms <= e4_set:
        failures.append(f"an atom escapes the absolutely connected elements on {lat!r}")
    if report.absolute:
        for a in range(lat.n):
            if flags[a][1] and not flags[a][3]:
                failures.append(f"E2 element {a} of an absolute lattice is not E4 on {lat!r}")
    return failures


def check_pair_invariants(pair: ConnectivityPair) -> list:
    """Per-pair laws tying the adjunction, CL conditions, taxonomy classes,
    and the join closure together."""
    failures = []
    lat = pair.lattice
    bot = lat.bottom()
    cmask = pair.cmask

    conn = is_subchainmail_of(lat, pair.connected)
    adj = galois_adjunction_holds(pair)
    if adj != conn:
        failures.append(f"adjunction vs subchainmail mismatch: {pair}")

    has_cl0 = cl0(pair)
    has_cl1 = cl1(pair)
    has_cl1p = cl1_prime(pair)
    has_cl1h = cl1_half(pair)
    has_cl2 = cl2(pair)
    has_cl3 = cl3(pair)

    if has_cl1 != has_cl1p:
        failures.append(f"the two mail-join closure forms disagree: {pair}")
    if (has_cl0 or has_cl2) and not has_cl1h:
        failures.append(f"bottom membership or saturation without well-foundedness: {pair}")

    comp_table = {x: components(pair, x) for x in range(lat.n)}

    typical = has_cl1 and not has_cl0
    tmd_components = all(
        _tmd_in_lplus(lat, comp_table[x]) for x in range(lat.n)
    )
    if typical != (adj and tmd_components):
        failures.append(f"typical characterization fails: {pair}")

    if conn:
        if has_cl1 != all(
            _tmd_in_lplus(lat, [c for c in comp_table[x] if c != bot]) for x in range(lat.n)
        ):
            failures.append(f"mail-join closure vs component TMD form fails: {pair}")
        if has_cl0 and not has_cl1:
            failures.append(f"bottom membership does not force mail-join closure: {pair}")

        closed_all_joins = (bot in pair.connected) and all(
            oracle_join_mask(lat.n, lat.up, (1 << a) | (1 << b)) in pair.connected
            for a in pair.connected
            for b in pair.connected
        )
        single_component = all(len(comp_table[x]) == 1 for x in range(lat.n))
        kernel_connected = all(kernel(pair, x) in pair.connected for x in range(lat.n))
        component_is_total_join = all(
            comp_table[x] == [oracle_join_mask(lat.n, lat.up, cmask & lat.down[x])]
            for x in range(lat.n)
        )
        if not (has_cl0 == closed_all_joins == single_component == kernel_connected == component_is_total_join):
            failures.append(f"the five bottom-membership equivalences split: {pair}")
        if has_cl0:
            expected = {frozenset()} | {frozenset({c}) for c in pair.connected}
            if set(dc_sets(pair)) != expected:
                failures.append(f"bottom membership does not flatten the TMD family: {pair}")

        if has_cl2 != all(kernel(pair, x) == x for x in range(lat.n)):
            failures.append(f"saturation vs kernel fixpoints fails: {pair}")
        if has_cl1h and not has_cl1:
            failures.append(f"well-foundedness does not force mail-join closure: {pair}")

        degenerate = pair.connected == frozenset(range(lat.n))
        if degenerate != (has_cl0 and has_cl2):
            failures.append(f"degeneracy characterization fails: {pair}")

        if has_cl1h and (typical != (not has_cl0)):
            failures.append(f"well-founded typical-vs-kernel dichotomy fails: {pair}")
        serra = typical and has_cl2
        if serra != ((not has_cl0) and has_cl2):
            failures.append(f"Serra characterization fails: {pair}")

        if has_cl3 and has_cl0:
            failures.append(f"separated pair is a kernel pair: {pair}")
        if has_cl1h and has_cl3 and not typical:
            failures.append(f"well-founded separated pair is not typical: {pair}")
        report = classify(pair)
        if report.absolute != (has_cl3 and serra):
            failures.append(f"absolute vs separated-Serra fails: {pair}")
        if report.absolute:
            for a in range(lat.n):
                if e2(lat, a) and not e4(lat, a):
                    failures.append(f"E2 without E4 in an absolute pair: {pair}")
        if serra:
            if not absolutely_connected_elements(lat) <= pair.connected:
                failures.append(f"Serra pair misses an absolutely connected element: {pair}")
            joins_of_e4 = all(
                oracle_join_mask(lat.n, lat.up, mask_of(absolutely_connected_elements(lat)) & lat.down[x]) == x
                for x in range(lat.n)
            )
            if report.absolute != (
                pair.connected == absolutely_connected_elements(lat) and joins_of_e4
            ):
                failures.append(f"absoluteness characterization via E4 fails: {pair}")

    # join closure bullets hold for arbitrary pairs
    closed = sigma_closure(pair)
    closed_conn = is_subchainmail_of(closed.lattice, closed.connected)
    if conn != closed_conn:
        failures.append(f"join closure changes the connectivity verdict: {pair}")
    if (conn and has_cl3) != (closed_conn and cl3(closed)):
        failures.append(f"join closure changes separatedness: {pair}")
    if (conn and has_cl0) != (closed_conn and cl0(closed)):
        failures.append(f"join closure changes the kernel verdict: {pair}")
    if conn and has_cl0:
        if set(sigma_members(pair)) != set(pair.connected):
            failures.append(f"kernel pair's join closure is not the connectivity itself: {pair}")
    if not cl2(closed):
        failures.append(f"join closure is not saturated: {pair}")
    return failures


def check_components_unique(pair: ConnectivityPair) -> list:
    """Connectivity holds exactly when every connected element below x sits
    below a unique component of x."""
    lat = pair.lattice
    unique = True
    for x in range(lat.n):
        comp = components(pair, x)
        for c in pair.connected:
            if lat.leq(c, x):
                if sum(1 for m in comp if lat.leq(c, m)) != 1:
                    unique = False
    conn = is_subchainmail_of(lat, pair.connected)
    if conn != unique:
        return [f"unique-component characterization fails: {pair}"]
    return []
