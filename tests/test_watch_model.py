"""Model test: ``RequestTracker.watch`` against the three chains it replaced.

``FinalityChain``, ``BootstrapChain`` and ``BodyChain`` are the skeletons of
the parent commit's ``intracluster._watch_finality/_probe_finality``,
``sync.watch_bootstrap/_probe_bootstrap`` and
``dissemination._schedule_body_probe/_probe_body``, kept verbatim as the
oracles: the same guards in the same order, the same ``clock.schedule``
calls, with the engine's own state (is the round final, is the join done,
did the body validate) replaced by a scripted :class:`Subject`.

Hypothesis scripts when the awaited state arrives, at which attempt ``kick``
finishes the job itself, which kicks send (and when the answer lands —
including exactly on the next firing, which pins that a watch re-arms
*after* ``kick`` returns), and when ``watch`` is called again for the same
subject.  The oracle run and the ``watch`` run must log the same
``(virtual time, subject, event)`` sequence and process the same number of
clock events.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.simclock import SimClock
from repro.protocols.reliability import (
    PROBE_ATTEMPTS,
    PROBE_RETRY_POLICY,
    RequestTracker,
)

settings.register_profile(
    "ci", derandomize=True, max_examples=25, deadline=None
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

#: Firing times of an undisturbed chain: 2, 6, 14, 30, then the cap at 46.
FIRINGS = (2.0, 6.0, 14.0, 30.0, 46.0)


@dataclass(frozen=True)
class Script:
    """What happens to one watched subject."""

    chain: str  # "finality" | "bootstrap" | "body"
    #: Virtual time the awaited state arrives on its own (None = never).
    arrives_at: float | None
    #: The attempt whose kick completes the job itself (None = none does).
    kick_finishes: int | None
    #: Per attempt: delay of the answer kick's send brings (None = no send).
    sends: tuple[float | None, ...]
    #: Virtual times ``watch`` is called again for this subject.
    rewatch_at: tuple[float, ...]


class World:
    """One run's clock, event log and recording router."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self.log: list[tuple[float, int, str]] = []

    def note(self, subject: int, event: str) -> None:
        self.log.append((self.clock.now, subject, event))

    # The router surface the chains and the tracker report to; the kind
    # carries the subject so the log attributes every count.
    def note_retry(self, kind: str) -> None:
        self.note(int(kind), "note_retry")

    def note_timeout(self, kind: str) -> None:
        self.note(int(kind), "note_timeout")

    def note_degraded(self, kind: str) -> None:
        self.note(int(kind), "note_degraded")


class Subject:
    """The scripted engine state behind one watch."""

    def __init__(self, world: World, index: int, script: Script) -> None:
        self.world = world
        self.index = index
        self.kind = str(index)
        self.script = script
        self.finished = False  # set by a kick or by exhaustion

    def waiting(self) -> bool:
        arrives_at = self.script.arrives_at
        if self.finished:
            return False
        return arrives_at is None or self.world.clock.now < arrives_at

    def kick(self, attempt: int) -> None:
        world = self.world
        world.note(self.index, "kick")
        delay = self.script.sends[attempt - 1]
        if delay is not None:
            world.note_retry(self.kind)
            world.clock.schedule(delay, world.note, self.index, "answer")
        if self.script.kick_finishes == attempt:
            self.finished = True

    def exhausted(self) -> None:
        self.world.note(self.index, "exhausted")
        self.finished = True


# ------------------------------------------------------------------ oracles
class FinalityChain:
    """``IntraClusterEngine._watch_finality`` / ``_probe_finality``."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.probed: set[int] = set()

    def watch(self, subject: Subject) -> None:
        key = subject.index
        if key in self.probed:
            return
        self.probed.add(key)
        self.world.clock.schedule(
            PROBE_RETRY_POLICY.timeout_for(1), self._probe, subject, 1
        )

    def _probe(self, subject: Subject, attempt: int) -> None:
        if not subject.waiting():
            self.probed.discard(subject.index)
            return
        if attempt > PROBE_ATTEMPTS:
            self.probed.discard(subject.index)
            self.world.note_degraded(subject.kind)
            return
        self.world.note_timeout(subject.kind)
        subject.kick(attempt)
        self.world.clock.schedule(
            PROBE_RETRY_POLICY.timeout_for(attempt + 1),
            self._probe,
            subject,
            attempt + 1,
        )


class BootstrapChain:
    """``SyncEngine.watch_bootstrap`` / ``_probe_bootstrap``."""

    def __init__(self, world: World) -> None:
        self.world = world

    def watch(self, subject: Subject) -> None:
        self.world.clock.schedule(
            PROBE_RETRY_POLICY.timeout_for(1), self._probe, subject, 1
        )

    def _probe(self, subject: Subject, attempt: int) -> None:
        if not subject.waiting():
            return  # completed (or the joiner itself departed)
        if attempt > PROBE_ATTEMPTS:
            self.world.note_degraded(subject.kind)
            subject.exhausted()
            return
        self.world.note_timeout(subject.kind)
        subject.kick(attempt)
        if not subject.finished:  # bootstraps.get(node_id) is state
            self.world.clock.schedule(
                PROBE_RETRY_POLICY.timeout_for(attempt + 1),
                self._probe,
                subject,
                attempt + 1,
            )


class BodyChain:
    """``DisseminationEngine._schedule_body_probe`` / ``_probe_body``."""

    def __init__(self, world: World) -> None:
        self.world = world

    def watch(self, subject: Subject, attempt: int = 1) -> None:
        self.world.clock.schedule(
            PROBE_RETRY_POLICY.timeout_for(attempt),
            self._probe,
            subject,
            attempt,
        )

    def _probe(self, subject: Subject, attempt: int) -> None:
        if not subject.waiting():
            return
        if attempt > PROBE_ATTEMPTS:
            self.world.note_degraded(subject.kind)
            return
        self.world.note_timeout(subject.kind)
        subject.kick(attempt)
        self.watch(subject, attempt + 1)


CHAINS = {
    "finality": FinalityChain,
    "bootstrap": BootstrapChain,
    "body": BodyChain,
}


# ------------------------------------------------------- the code under test
class Watches:
    """The three engines' ``watch`` calls, over one shared tracker."""

    def __init__(self, world: World) -> None:
        self.tracker = RequestTracker(world.clock, world)

    def watch(self, subject: Subject) -> None:
        chain = subject.script.chain
        if chain == "finality":
            self.tracker.watch(
                subject.kind, subject.waiting, subject.kick, key=subject.index
            )
        elif chain == "bootstrap":

            def kick(attempt: int) -> bool:
                subject.kick(attempt)
                return subject.finished

            self.tracker.watch(
                subject.kind, subject.waiting, kick, subject.exhausted
            )
        else:
            self.tracker.watch(subject.kind, subject.waiting, subject.kick)


def run(scripts: list[Script], modelled: bool) -> tuple[World, object]:
    world = World()
    watches = Watches(world)
    chains = {name: cls(world) for name, cls in CHAINS.items()}
    for index, script in enumerate(scripts):
        subject = Subject(world, index, script)
        start = chains[script.chain].watch if modelled else watches.watch
        start(subject)
        for at in script.rewatch_at:
            world.clock.schedule_at(at, start, subject)
    world.clock.run()
    return world, chains["finality"].probed if modelled else watches.tracker


# A coarse grid so arrivals, answers and re-watches land on, just before
# and just after the firings.
_times = st.sampled_from(
    sorted({t + d for t in FIRINGS for d in (-1.0, 0.0, 1.0)} | {0.0, 60.0})
)
_send = st.one_of(
    st.none(),
    # 0: lands now; 1: between firings; 4/8/16: exactly on the next firing.
    st.sampled_from((0.0, 1.0, 4.0, 8.0, 16.0)),
)
scripts = st.lists(
    st.builds(
        Script,
        chain=st.sampled_from(sorted(CHAINS)),
        arrives_at=st.one_of(st.none(), _times),
        kick_finishes=st.one_of(st.none(), st.integers(1, PROBE_ATTEMPTS)),
        sends=st.tuples(*[_send] * PROBE_ATTEMPTS),
        rewatch_at=st.lists(_times, max_size=3).map(tuple),
    ),
    min_size=1,
    max_size=3,
)


@settings(derandomize=True, deadline=None)
@given(scripts)
def test_watch_replays_the_three_chains(scripts_):
    model, probed = run(scripts_, modelled=True)
    world, tracker = run(scripts_, modelled=False)
    assert world.log == model.log
    assert world.clock.processed == model.clock.processed
    assert world.clock.now == model.clock.now
    assert tracker.watching == probed == set()
    assert not tracker.pending


def undisturbed(chain: str) -> Script:
    return Script(chain, None, None, (None,) * PROBE_ATTEMPTS, ())


def test_an_undisturbed_watch_paces_2_4_8_16_then_degrades():
    world, tracker = run([undisturbed("bootstrap")], modelled=False)
    assert world.log == [
        event
        for at in FIRINGS[:-1]
        for event in ((at, 0, "note_timeout"), (at, 0, "kick"))
    ] + [(FIRINGS[-1], 0, "note_degraded"), (FIRINGS[-1], 0, "exhausted")]
    assert world.clock.processed == len(FIRINGS)


def test_the_watch_rearms_after_kick_returns():
    """An answer due exactly at the next firing is delivered first."""
    script = Script("finality", None, None, (4.0, None, None, None), ())
    world, _ = run([script], modelled=False)
    at_second_firing = [event for at, _, event in world.log if at == 6.0]
    assert at_second_firing == ["answer", "note_timeout", "kick"]


def test_a_keyed_watch_is_deduped_until_it_ends():
    # Re-watched mid-run (dropped), and again after it ended (runs anew).
    script = Script("finality", 5.0, None, (None,) * 4, (3.0, 10.0))
    world, tracker = run([script], modelled=False)
    assert [at for at, _, event in world.log if event == "kick"] == [2.0]
    # start@0 → 2, 6 (ends); rewatch@3 (dropped), rewatch@10 → 12 (ends).
    assert world.clock.processed == 2 + 2 + 1
    assert not tracker.watching


def test_only_a_kick_that_says_so_ends_the_watch_early():
    finished_by_kick = dict(arrives_at=None, kick_finishes=1)
    sends = (None,) * PROBE_ATTEMPTS
    early, _ = run(
        [Script("bootstrap", sends=sends, rewatch_at=(), **finished_by_kick)],
        modelled=False,
    )
    late, _ = run(
        [Script("body", sends=sends, rewatch_at=(), **finished_by_kick)],
        modelled=False,
    )
    assert early.clock.processed == 1  # ended inside the first firing
    assert late.clock.processed == 2  # re-armed; ended at the next firing
    assert early.log == late.log
