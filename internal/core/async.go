// The session scheduler: the §3.1 platform loop — propose, then build,
// boot and measure on worker VMs, then observe — as one event-driven
// scheduler over the simulated substrate. Every session runs through it;
// one worker and the round barrier are settings of its staleness bound,
// not separate loops. A virtual event queue ordered by (finish-time,
// worker-index) hands the next proposal to a worker the moment its
// previous evaluation completes, so one straggling build need not stall
// the other W-1 workers.
//
// Determinism is the design constraint — a session is a pure function of
// its options, never of goroutine scheduling:
//
//  1. Private worker state — each worker owns its clock (merged by
//     vm.WallClock), its rng stream (rng.WorkerSeed derivation; worker 0
//     keeps the seed's own stream), its speed factor, and its §3.1 skip
//     digests. The shared artifact store is consulted by the coordinator
//     only, at planning time (pipeline.go); worker goroutines touch
//     nothing shared.
//  2. Virtual-time dispatch — placement is dynamic (the next proposal
//     goes to whichever worker frees first in *virtual* time), but the
//     completion order is a pure function of virtual finish times with
//     worker index as the tie-break. The coordinator pops exactly one
//     completion event per step, measures and Observes it, and refills
//     workers through the search.BatchSearcher pending-set protocol
//     (natively for Grid/Bayesian/DeepTune, via the AsBatch adapter
//     otherwise), so later slots of a batch condition on earlier picks.
//  3. Bounded staleness — the effective bound S caps how many unobserved
//     evaluations may exist when a proposal batch is drawn, so no
//     proposal conditions on a history more than S evaluations behind.
//     S ≥ W-1 is full asynchrony, since one evaluation per worker bounds
//     in-flight work at W anyway. S = 0 — every one-worker session, and
//     every multi-worker one without Options.Async or with Staleness 0 —
//     is the round barrier: nothing is dispatched while an evaluation is
//     unobserved, iteration i prefers worker i mod W, every worker stalls
//     to the round's slowest evaluation (the wait is idle time), and the
//     round is observed in iteration order.
//
// The report's history is the order the searcher actually observed:
// virtual completion order asynchronously, iteration order behind a
// barrier. The loop's state (in-flight table, busy count, frontier,
// exhaustion) lives in Session fields, which is what makes a session
// interruptible and serializable between observations — in-flight
// evaluations are finished virtual work awaiting observation, and
// snapshot as such.
//
// Host-side concurrency note: evaluations within one dispatch batch run
// on goroutines, but in the unbounded steady state a batch refills a
// single worker, so the host executes the session nearly serially — a
// consequence of the data dependency (each refill's proposal conditions
// on the observation that freed the worker), not of the implementation.
// Evaluation here is microseconds of host time; the concurrency being
// scheduled is virtual. The goroutines exist for protocol fidelity (the
// race detector patrols the worker-state handoff), not host speedup.
package core

import (
	"slices"

	"wayfinder/internal/configspace"
)

// roundSlot is one dispatch slot: a fresh proposal or the re-dispatch of a
// fault-lost iteration.
type roundSlot struct {
	iter    int
	attempt int
	cfg     *configspace.Config
}

// step refills idle workers (staleness bound permitting), pops the
// next completion event, and records it. Under a fault schedule a
// dispatch may produce no in-flight work (everything killed, or the
// session waiting out a backoff or a host outage with an advanced
// frontier); the loop re-dispatches until an event exists or the
// dispatcher reports no way to make progress.
func (s *Session) step() bool {
	for {
		progressed := s.dispatch()
		if s.busy > 0 {
			break
		}
		if !progressed {
			return false
		}
	}
	// Pop the next completion event. Asynchronously that is the earliest
	// virtual finish, lowest worker index on ties (strict < keeps the
	// first candidate); behind a barrier every evaluation of the round has
	// finished, so the round drains in iteration order.
	sel := -1
	for i, ev := range s.inflight {
		if ev == nil {
			continue
		}
		if sel < 0 || s.staleBound == 0 && ev.iter < s.inflight[sel].iter ||
			s.staleBound > 0 && ev.res.EndSec < s.inflight[sel].res.EndSec {
			sel = i
		}
	}
	ev := s.inflight[sel]
	s.inflight[sel] = nil
	s.busy--
	res := ev.res
	if res.EndSec > s.frontier {
		s.frontier = res.EndSec
	}
	if !res.Crashed {
		// The worker is quiescent between completion and observation, so
		// its noise stream sits exactly past this evaluation's stage
		// jitters.
		res.Metric = s.eng.Metric.Measure(s.eng.Model, s.eng.App, ev.cfg, s.workers[sel].noise)
	}
	s.record(res)
	return true
}

// dispatch refills every idle worker that still has budget, provided
// the staleness bound admits a new proposal batch: drawing now means each
// proposal lags exactly `busy` unobserved evaluations. Workers evaluate
// concurrently (their state is private), and the coordinator joins them
// before touching any clock or result.
//
// frontier is the virtual decision time — the moment the current dispatch
// decision became possible. A refilled worker whose clock lags it (it sat
// out waiting for the staleness bound) stalls forward to the frontier, so
// no evaluation starts before the observation that admitted it and the
// wait is charged as idle time. Behind a barrier (bound 0) nothing is
// dispatched while any evaluation is unobserved, a slot prefers worker
// iter mod W, and after each dispatch every worker stalls to the round's
// slowest evaluation, which becomes the frontier.
// It reports whether it made progress — dispatched work, or advanced the
// frontier over dead air (a backoff deadline or a host outage with no
// event to pop) — so step knows when the session truly cannot move.
func (s *Session) dispatch() bool {
	barrier := s.staleBound == 0
	if barrier && s.busy > 0 {
		return false // the round is still draining
	}
	e, o := s.eng, &s.opts
	s.advanceFaults(s.frontier)
	w := len(s.workers)
	idle := make([]int, 0, w)
	revival, revives := 0.0, false
	for i, ev := range s.inflight {
		if ev != nil {
			continue
		}
		// A refilled worker starts no earlier than max(own clock,
		// frontier) — the budget and liveness checks use that effective
		// start, so a worker whose host is down at dispatch time is
		// simply not refilled (its proposals are never burned).
		start := s.workers[i].clock.Now()
		if start < s.frontier {
			start = s.frontier
		}
		if !s.workerLive(i, start) {
			if at, up := o.Faults.NextUpAt(s.workers[i].host, start); up && (!revives || at < revival) {
				revival, revives = at, true
			}
			continue
		}
		if o.TimeBudgetSec > 0 && start >= o.TimeBudgetSec {
			continue
		}
		idle = append(idle, i)
	}
	// Ready retries dispatch first; they are re-dispatches of proposals
	// the searcher already conditioned on, so the staleness bound does not
	// gate them.
	slots := make([]roundSlot, 0, len(idle))
	for _, r := range s.takeReadyRetries(s.frontier, len(idle)) {
		slots = append(slots, roundSlot{iter: r.iter, attempt: r.attempt, cfg: r.cfg})
		s.report.Retries++
	}
	if fresh := len(idle) - len(slots); fresh > 0 && !s.exhausted && s.busy <= s.staleBound {
		n := fresh
		if o.Iterations > 0 && o.Iterations-s.next < n {
			n = o.Iterations - s.next
		}
		if n > 0 {
			cfgs := make([]*configspace.Config, 0, n)
			if o.WarmStart && s.next == 0 {
				cfgs = append(cfgs, e.Model.Space.Default())
			}
			// Corpus warm-start seeds dispatch ahead of the searcher's own
			// proposals, exactly like the WarmStart default.
			for len(s.seeds) > 0 && len(cfgs) < n {
				cfgs, s.seeds = append(cfgs, s.seeds[0]), s.seeds[1:]
			}
			if want := n - len(cfgs); want > 0 {
				cfgs = append(cfgs, s.batcher.ProposeBatch(want)...)
			}
			if len(cfgs) == 0 {
				s.exhausted = true
			}
			for _, cfg := range cfgs {
				slots = append(slots, roundSlot{iter: s.next, cfg: cfg})
				s.next++
			}
		}
	}
	if len(slots) == 0 {
		if s.busy > 0 {
			return false // an event is pending; popping it advances the frontier
		}
		if barrier && o.TimeBudgetSec > 0 && s.frontier >= o.TimeBudgetSec {
			return false // no round can start within the budget any more
		}
		// Idle session: jump the frontier to the next actionable instant —
		// the earliest backoff deadline strictly ahead, or the earliest
		// moment a downed worker's host comes back, whichever is sooner.
		// Behind a barrier, a fleet with no live worker waits only for a
		// revival, and one with live workers only for a deadline.
		target, ok := 0.0, false
		if at, has := s.earliestRetry(); has && at > s.frontier && (!barrier || len(idle) > 0) {
			target, ok = at, true
		}
		if revives && (!barrier || len(idle) == 0) && (!ok || revival < target) {
			target, ok = revival, true
		}
		if !ok {
			return false
		}
		s.frontier = target
		if barrier {
			// A round waits dead air out on the clocks: the whole fleet
			// over an outage, the live workers over a backoff.
			for i := range s.workers {
				if len(idle) == 0 || slices.Contains(idle, i) {
					s.wall.Stall(i, target)
				}
			}
		}
		return true
	}
	// Plan builds in dispatch order (coordinator-only store access,
	// pipeline.go), then execute the batch. An in-flight build from an
	// earlier dispatch is already resolved — its goroutines joined before
	// this dispatch — so an awaiter planned here reads a settled ticket;
	// same-batch duplicates run in runBatch's second wave. Placement draws
	// from the idle live workers (the locality policy may reorder to chase
	// image digests).
	avail := make([]bool, w)
	for _, i := range idle {
		avail[i] = true
	}
	batch := make([]*batchEval, 0, len(slots))
	for _, sl := range slots {
		wi := s.placeSlot(avail, sl.iter, sl.cfg, barrier)
		if wi < 0 {
			break
		}
		avail[wi] = false
		s.wall.Stall(wi, s.frontier)
		st := s.workers[wi]
		plan := s.planBuild(sl.cfg, st)
		plan.inject = s.injectFor(sl.iter, sl.attempt+1)
		batch = append(batch, &batchEval{iter: sl.iter, cfg: sl.cfg, st: st, plan: plan,
			attempt: sl.attempt, preImageKey: st.imageKey, preHaveImage: st.haveImage,
			preBuilds: st.builds, preStall: s.wall.WorkerStallSec(wi)})
	}
	e.runBatch(batch)
	for _, ev := range s.resolveFaults(batch) {
		s.inflight[ev.st.worker] = ev
		s.busy++
	}
	if barrier {
		// Every worker waits for the round's slowest evaluation (killed
		// evaluations were already rolled back to their kill instant, so
		// they no longer push the maximum); the wait is idle time, and
		// the next round is decided at the barrier.
		s.frontier = s.wall.Now()
		for i := 0; i < w; i++ {
			s.wall.Stall(i, s.frontier)
		}
		s.round++
		if w > 1 {
			s.emit(RoundBarrier{Round: s.round, Size: len(batch), WallSec: s.frontier})
		}
	}
	return true
}
