"""Live data-content shadow memory for the runtime simulator.

:mod:`repro.analysis.protocol` checks the swap protocol *statically*
against a symbolic versioned memory. This module is the same model made
*live*: a :class:`ShadowMemory` mirrors every macro page's data as
per-4KB-sub-block ``(page, write_generation)`` cells, the memory
controller feeds it every routed demand access, and the migration
engine feeds it every copy its plans perform — at the cycle the copy
lands, so a read that races a half-landed fill is checked against what
the machine location *actually holds at that time*.

The model is deliberately identical to the checker's ``_Machine``:

* locations are ``("slot", i)`` / ``("mach", p)`` / ``("buf", 0)``;
* a copy first kills any write-forwarding link through its destination,
  then lands its sub-blocks;
* a fully-landed copy opens a forwarding link — the on-chip controller
  re-sends stores that hit the source of a still-uncommitted copy — and
  all of a plan's links die when the plan completes;
* a write bumps the page/sub-block generation and lands at the access's
  resolved location (plus any live forwarding link from it);
* a read is checked against the expected ``(page, generation)``; a
  mismatch is recorded as a :class:`DataViolation` (never raised — the
  harness asserts on the collected list).

Timing: engine-side copies arrive through a time-ordered operation
queue and are applied before any demand access with an equal-or-later
timestamp (``times >= ready`` is how the controller serves a landed
sub-block, so the queue flushes ops with ``time <= access_time``).
Accesses to the reserved page Ω carry no architectural data and are
ignored.

Storage and the per-chunk split. Cells are two int64 arrays, page and
generation, indexed by ``(site, sub-block)``, where a site numbers a
location: slot ``i`` is site ``i``, machine page ``p`` is site
``n_slots + p`` and the bounce buffer is the last site; garbage is
page ``-1``. :meth:`ShadowMemory.process` takes a whole chunk at once
and splits it:

* generations never depend on cell contents, so every access's
  generation — a write's new one, a read's expected one — comes from
  one stable sort by ``(page, sub-block)`` and a running count of
  writes;
* a *quiet* location, named by no op that lands within the chunk and
  by no live forwarding link, changes only through its own demand
  writes: its reads are checked with one sort by ``(location,
  sub-block)`` and a forward fill of the last earlier write (or the
  stored cell when there is none);
* accesses to the other, *migrating*, locations replay one at a time,
  interleaved with the landing ops in time order; they are counted in
  ``replayed_accesses``.

The two parts touch disjoint locations, and their violations are
merged by access index, so the result is exactly that of one access at
a time (``tests/shadow_reference.py`` keeps that loop as the oracle).

The shadow is pure bookkeeping: it never influences routing, timing or
any simulated number. ``EpochSimulator(track_data=True)`` wires it in,
and the run keeps its deferred block DRAM flush; the default leaves
every code path byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..migration.table import TranslationTable

#: ("slot", i) on-package | ("mach", p) off-package | ("buf", 0) bounce buffer
Location = tuple[str, int]

#: the page of a garbage cell
GARBAGE = -1


@dataclass(frozen=True)
class DataViolation:
    """One demand read that returned something other than the last write."""

    time: int
    page: int
    subblock: int
    location: Location
    #: what the resolved location held: (page, generation), or None (garbage)
    found: tuple[int, int] | None
    #: the (page, generation) the read should have returned
    expected: tuple[int, int]

    def format(self) -> str:
        holds = (
            "garbage"
            if self.found is None
            else f"page {self.found[0]} g{self.found[1]}"
        )
        return (
            f"t={self.time}: read page {self.page} sub-block {self.subblock} "
            f"resolved to {self.location} holding {holds}, expected "
            f"page {self.page} g{self.expected[1]}"
        )


class ShadowMemory:
    """Versioned data-content mirror of the whole machine memory."""

    def __init__(self, table: TranslationTable):
        self.amap = table.amap
        self.n_subblocks = self.amap.subblocks_per_page
        self.ghost = self.amap.ghost_page
        self.n_slots = table.n_slots
        n_pages = self.amap.n_total_pages
        #: pages outside the data address space: Ω plus any RAS spare
        #: pages (a spare's machine frame is reached through the retired
        #: page it re-homes, never through its own physical-page id)
        self._dead = np.zeros(n_pages, dtype=bool)
        self._dead[sorted(table.reserved_pages)] = True
        self._dead[self.ghost] = True
        self._live_pages = np.flatnonzero(~self._dead)
        self._buf_site = self.n_slots + n_pages
        #: per-(site, sub-block) cell: page (GARBAGE for garbage) and generation
        self._page = np.full((self._buf_site + 1, self.n_subblocks), GARBAGE,
                             dtype=np.int64)
        self._gen = np.zeros_like(self._page)
        self._page_flat = self._page.reshape(-1)
        self._gen_flat = self._gen.reshape(-1)
        #: per-(page, sub-block) last written generation
        self._generation = np.zeros((n_pages, self.n_subblocks), dtype=np.int64)
        self._generation_flat = self._generation.reshape(-1)
        #: scratch flags for the sites a chunk's ops and links name
        self._named = np.zeros(self._buf_site + 1, dtype=bool)
        #: longest chunk whose (cell, access index) pairs pack into one
        #: int64 sort key; a longer chunk is checked in pieces
        self._max_chunk = (1 << (63 - self._page.size.bit_length())) - 1
        self.violations: list[DataViolation] = []
        self.reads = 0
        self.writes = 0
        #: accesses checked by the exact per-access replay (migrating
        #: locations) rather than the vectorised quiet-location pass
        self.replayed_accesses = 0
        #: live write-forwarding links as (src site, dst site) pairs
        self._links: list[tuple[int, int]] = []
        #: time-ordered engine ops: (time, kind, payload); kinds are
        #: "copy" (src, dst, subblocks|None), "link" (src, dst), "close" ()
        self._ops: deque[tuple[int, str, tuple]] = deque()
        pages = self._live_pages
        on, machine = table.resolve_many(pages)
        # pages sharing a location: the highest page id holds it
        sites, first = np.unique(self._sites(on, machine)[::-1], return_index=True)
        self._page[sites] = pages[pages.shape[0] - 1 - first][:, None]

    # ------------------------------------------------------------------
    # locations
    # ------------------------------------------------------------------
    def _site(self, loc: Location) -> int:
        kind, index = loc
        if kind == "slot" and 0 <= index < self.n_slots:
            return index
        if kind == "mach" and 0 <= index < self._buf_site - self.n_slots:
            return self.n_slots + index
        if kind == "buf" and index == 0:
            return self._buf_site
        raise ValueError(f"no such location {loc!r}")

    def _location(self, site: int) -> Location:
        if site < self.n_slots:
            return ("slot", site)
        if site < self._buf_site:
            return ("mach", site - self.n_slots)
        return ("buf", 0)

    def _sites(self, on: np.ndarray, machine: np.ndarray) -> np.ndarray:
        return np.where(on, machine, machine + self.n_slots)

    @property
    def generation(self) -> dict[tuple[int, int], int]:
        """``(page, subblock) -> last written generation`` (absent = 0)."""
        pages, sbs = np.nonzero(self._generation)
        gens = self._generation[pages, sbs]
        return {
            (p, sb): g
            for p, sb, g in zip(pages.tolist(), sbs.tolist(), gens.tolist())
        }

    # ------------------------------------------------------------------
    # memory primitives (identical semantics to analysis.protocol._Machine)
    # ------------------------------------------------------------------
    def apply_copy(
        self,
        src: Location,
        dst: Location,
        subblocks: tuple[int, ...] | None = None,
    ) -> None:
        """One engine copy lands (whole page, or the given sub-blocks)."""
        s, d = self._site(src), self._site(dst)
        # the first byte landing at dst kills any older copy stream
        # through that location
        self._links = [link for link in self._links if d not in link]
        if subblocks is None:
            self._page[d] = self._page[s]
            self._gen[d] = self._gen[s]
        else:
            for sb in subblocks:
                self._page[d, sb] = self._page[s, sb]
                self._gen[d, sb] = self._gen[s, sb]

    def open_link(self, src: Location, dst: Location) -> None:
        """A copy fully landed: forward later stores at src into dst."""
        self._links.append((self._site(src), self._site(dst)))

    def corrupt(
        self, loc: Location, subblocks: tuple[int, ...], time: int | None = None
    ) -> int:
        """Physical bit flips land at ``loc`` (row-disturbance model).

        The named sub-blocks become garbage, exactly like the checker's
        torn-copy residue: the next demand read resolving there — or
        the final :meth:`verify_table` sweep — records a
        :class:`DataViolation`. Engine ops landed by ``time`` are
        flushed first so the flips hit what the location holds *then*.
        Returns the number of cells newly corrupted (already-garbage
        cells don't recount).
        """
        self.flush(time)
        cells = self._page[self._site(loc)]
        hit = 0
        for sb in subblocks:
            if cells[sb] != GARBAGE:
                cells[sb] = GARBAGE
                hit += 1
        return hit

    def close_links(self) -> None:
        """A plan completed: its table updates are live, copies stop."""
        self._links.clear()

    def scrub_page(self, page: int, loc: Location) -> None:
        """Hypervisor scrub on tenant release: overwrite ``page`` in place.

        Models the zero-fill a hypervisor performs before re-assigning a
        freed page window: every sub-block gets a *new* write generation
        landed at the page's resolved location, so a later tenant reading
        the recycled window sees hypervisor-initialised content, not the
        departed tenant's residue. Skipping the scrub leaves the old
        cells in place — and because they still carry a matching
        ``(page, generation)``, the shadow alone cannot see the leak;
        that cross-tenant flow is what the tenancy isolation oracle
        exists to catch.
        """
        site = self._site(loc)
        self._generation[page] += 1
        self._page[site] = page
        self._gen[site] = self._generation[page]

    # ------------------------------------------------------------------
    # engine-side op queue
    # ------------------------------------------------------------------
    def schedule(self, time: int, kind: str, payload: tuple) -> None:
        """Queue an op to apply before any access at ``>= time``.

        Ops must be scheduled in non-decreasing time order (the engine
        walks each plan forward, and a new plan only schedules once the
        previous one's window has closed).
        """
        self._ops.append((int(time), kind, payload))

    def _apply(self, kind: str, payload: tuple) -> None:
        if kind == "copy":
            self.apply_copy(*payload)
        elif kind == "link":
            self.open_link(*payload)
        else:
            self.close_links()

    def flush(self, until: int | None = None) -> None:
        """Apply every queued op with ``time <= until`` (None: all)."""
        ops = self._ops
        while ops and (until is None or ops[0][0] <= until):
            _, kind, payload = ops.popleft()
            self._apply(kind, payload)

    def drop_pending(self) -> None:
        """Cancel not-yet-landed ops (quarantine quiesces the copy engine)."""
        self._ops.clear()
        self.close_links()

    # ------------------------------------------------------------------
    # controller-side demand stream
    # ------------------------------------------------------------------
    def process(self, times, pages, subblocks, on, machine, writes) -> None:
        """Check/record one time-ordered chunk of routed accesses.

        All six arguments are parallel per-access arrays; ``on`` and
        ``machine`` are the controller's resolution (timeline and fill
        refinements already applied) at the *original* access times.
        An op lands before an access once the access time, or any
        earlier one in the chunk, has reached it — what a queue flushed
        before each access in turn does.
        """
        n = times.shape[0]
        if n > self._max_chunk:
            for a in range(0, n, self._max_chunk):
                b = a + self._max_chunk
                self.process(times[a:b], pages[a:b], subblocks[a:b],
                             on[a:b], machine[a:b], writes[a:b])
            return
        if n == 0:
            return
        landing: list[tuple[int, str, tuple]] = []
        if self._ops:
            horizon = int(times.max())
            for op in self._ops:
                if op[0] > horizon:
                    break
                landing.append(op)
        # the running latest time: what each access has flushed the queue to
        reached = np.maximum.accumulate(times) if landing else None
        live = ~self._dead[pages]
        if not live.all():
            keep = np.flatnonzero(live)
            times, pages, subblocks = times[keep], pages[keep], subblocks[keep]
            on, machine, writes = on[keep], machine[keep], writes[keep]
            if reached is not None:
                reached = reached[keep]
        writes = writes.astype(bool, copy=False)
        n = pages.shape[0]
        n_writes = int(np.count_nonzero(writes))
        self.writes += n_writes
        self.reads += n - n_writes

        gens = self._generations(pages, subblocks, writes)
        sites = self._sites(on, machine)
        named = {site for link in self._links for site in link}
        for _, kind, payload in landing:
            if kind != "close":
                named.update(self._site(loc) for loc in payload[:2])
        quiet, replay = None, ()  # None: every access is quiet
        if named:
            flags = self._named
            flat = list(named)
            flags[flat] = True
            migrating = flags[sites]
            flags[flat] = False
            if migrating.any():
                quiet = np.flatnonzero(~migrating)
                replay = np.flatnonzero(migrating)
                self.replayed_accesses += replay.shape[0]
        cells = sites * self.n_subblocks + subblocks

        bad: list[tuple[int, int, int]] = []  # (access, found page, found gen)
        self._check_quiet(quiet, cells, pages, gens, writes, bad)
        self._replay(replay, cells, pages, gens, writes, reached, landing, bad)
        for _ in landing:
            self._ops.popleft()
        if bad:
            bad.sort()
            self.violations += [
                self._violation(
                    int(times[i]), int(pages[i]), int(subblocks[i]),
                    int(sites[i]), fp, fg, int(gens[i]),
                )
                for i, fp, fg in bad
            ]

    def _generations(self, pages, subblocks, writes) -> np.ndarray:
        """Each access's generation: a write's new one, a read's expected
        one; bumps the stored generations by the chunk's writes."""
        key = pages * self.n_subblocks + subblocks
        stored = self._generation_flat
        if not writes.any():
            return stored[key]
        order, sk, head, tail = _sorted_runs(key)
        sw = writes[order]
        count = np.cumsum(sw)
        # writes before each (page, sub-block) group's first access
        before = np.maximum.accumulate(np.where(head, count - sw, 0))
        sorted_gens = stored[sk] + (count - before)
        gens = np.empty_like(sorted_gens)
        gens[order] = sorted_gens
        last = np.flatnonzero(tail)
        stored[sk[last]] = sorted_gens[last]
        return gens

    def _check_quiet(self, sel, cells, pages, gens, writes, bad) -> None:
        """Vectorised check of accesses to locations nothing else writes:
        each read sees the last earlier write to its cell in this chunk,
        else the stored cell."""
        if sel is not None:
            cells, pages, gens, writes = cells[sel], pages[sel], gens[sel], writes[sel]
        if cells.shape[0] == 0:
            return
        order, sc, head, tail = _sorted_runs(cells)
        sp = pages[order]
        sg = gens[order]
        sw = writes[order]
        pos = np.arange(sc.shape[0])
        start = np.maximum.accumulate(np.where(head, pos, 0))
        last_write = np.maximum.accumulate(np.where(sw, pos, -1))
        prior = last_write >= start
        src = np.where(prior, last_write, 0)
        found_page = np.where(prior, sp[src], self._page_flat[sc])
        found_gen = np.where(prior, sg[src], self._gen_flat[sc])
        wrong = np.flatnonzero(~sw & ((found_page != sp) | (found_gen != sg)))
        if wrong.shape[0]:
            index = order[wrong] if sel is None else sel[order[wrong]]
            bad += zip(index.tolist(), found_page[wrong].tolist(),
                       found_gen[wrong].tolist())
        # each written cell ends holding its group's last write
        last = np.flatnonzero(tail & prior)
        lw = last_write[last]
        self._page_flat[sc[last]] = sp[lw]
        self._gen_flat[sc[last]] = sg[lw]

    def _replay(self, sel, cells, pages, gens, writes, reached, landing,
                bad) -> None:
        """Exact per-access check of accesses to migrating locations,
        interleaved with the landing ops; applies every landing op."""
        S = self.n_subblocks
        page_flat, gen_flat = self._page_flat, self._gen_flat
        k, n_land = 0, len(landing)
        if len(sel):
            it = zip(
                sel.tolist(), cells[sel].tolist(), pages[sel].tolist(),
                gens[sel].tolist(), writes[sel].tolist(),
                reached[sel].tolist() if n_land else [None] * len(sel),
            )
            for i, cell, page, gen, write, t in it:
                while k < n_land and landing[k][0] <= t:
                    self._apply(landing[k][1], landing[k][2])
                    k += 1
                if write:
                    page_flat[cell] = page
                    gen_flat[cell] = gen
                    if self._links:
                        site, sb = divmod(cell, S)
                        for src, dst in self._links:
                            if src == site:
                                page_flat[dst * S + sb] = page
                                gen_flat[dst * S + sb] = gen
                elif page_flat[cell] != page or gen_flat[cell] != gen:
                    bad.append((i, int(page_flat[cell]), int(gen_flat[cell])))
        for _, kind, payload in landing[k:]:
            self._apply(kind, payload)

    def _violation(self, time, page, sb, site, found_page, found_gen, gen):
        return DataViolation(
            time=time, page=page, subblock=sb, location=self._location(site),
            found=None if found_page == GARBAGE else (found_page, found_gen),
            expected=(page, gen),
        )

    # ------------------------------------------------------------------
    # end-of-run verification
    # ------------------------------------------------------------------
    def verify_table(self, table: TranslationTable) -> list[DataViolation]:
        """Final sweep: every page/sub-block the table can resolve must
        hold its last-written generation. Flushes all pending ops first;
        returns the violations found (without recording them)."""
        self.flush()
        pages = self._live_pages
        on, machine = table.resolve_many(pages)
        sites = np.repeat(self._sites(on, machine)[:, None], self.n_subblocks, axis=1)
        if table.filling:
            # the filling page resolves per sub-block
            for k, page in enumerate(pages.tolist()):
                for sb in range(self.n_subblocks):
                    on_pkg, m = table.resolve(page, sb)
                    sites[k, sb] = m if on_pkg else m + self.n_slots
        found_page = np.take_along_axis(self._page, sites, axis=0)
        found_gen = np.take_along_axis(self._gen, sites, axis=0)
        want = self._generation[pages]
        k, sb = np.nonzero((found_page != pages[:, None]) | (found_gen != want))
        return [
            self._violation(-1, p, s, r, fp, fg, g)
            for p, s, r, fp, fg, g in zip(
                pages[k].tolist(), sb.tolist(), sites[k, sb].tolist(),
                found_page[k, sb].tolist(), found_gen[k, sb].tolist(),
                want[k, sb].tolist(),
            )
        ]

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        contents = {}
        for site in np.flatnonzero((self._page != GARBAGE).any(axis=1)).tolist():
            contents[self._location(site)] = [
                None if p == GARBAGE else (p, g)
                for p, g in zip(self._page[site].tolist(), self._gen[site].tolist())
            ]
        return {
            "contents": contents,
            "generation": self.generation,
            "violations": list(self.violations),
            "reads": self.reads,
            "writes": self.writes,
            "replayed_accesses": self.replayed_accesses,
            "links": [[self._location(s), self._location(d)] for s, d in self._links],
            "ops": list(self._ops),
        }

    def load_state_dict(self, state: dict) -> None:
        self._page.fill(GARBAGE)
        self._gen.fill(0)
        for loc, cells in state["contents"].items():
            site = self._site(loc)
            for sb, cell in enumerate(cells):
                if cell is not None:
                    self._page[site, sb], self._gen[site, sb] = cell
        self._generation.fill(0)
        for (page, sb), gen in state["generation"].items():
            self._generation[page, sb] = gen
        self.violations = list(state["violations"])
        self.reads = state["reads"]
        self.writes = state["writes"]
        # .get(): checkpoints written before the counter existed
        self.replayed_accesses = state.get("replayed_accesses", 0)
        self._links = [(self._site(s), self._site(d)) for s, d in state["links"]]
        self._ops = deque(state["ops"])


def _sorted_runs(keys: np.ndarray):
    """Stable sort of non-empty, non-negative ``keys``: ``(order,
    sorted keys, first-of-run mask, last-of-run mask)``.

    Each key is packed above its index so one plain sort of distinct
    values yields the stable order (the caller bounds ``len(keys)`` so
    the pack fits in an int64).
    """
    n = keys.shape[0]
    shift = n.bit_length()
    packed = np.sort((keys << shift) | np.arange(n))
    order = packed & ((1 << shift) - 1)
    keys = packed >> shift
    head = np.empty(n, dtype=bool)
    tail = np.empty(n, dtype=bool)
    head[0] = tail[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    tail[:-1] = head[1:]
    return order, keys, head, tail
