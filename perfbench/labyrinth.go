package main

import (
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/stamp/labyrinth"
	"repro/internal/tm"
	"repro/internal/trace"
)

// labWarmRuns are unmeasured (but checked) app runs before the window.
const labWarmRuns = 3

// measureLabyrinth runs back-to-back labyrinth apps, each with a fresh
// Build and Setup, for d after the warm-up runs. Each run's maze comes
// from the seed and the run's index; each measured run is one slice.
func measureLabyrinth(seed int64, d time.Duration, traced bool) result {
	var (
		r        result
		rings    []*spanRing
		steal    = openStealClock()
		deadline time.Time
	)
	defer steal.close()
	if traced {
		r.sink = trace.NewSink(0)
		rings = []*spanRing{newSpanRing(), newSpanRing()}
	}
	for i := 0; i <= labWarmRuns || time.Now().Before(deadline); i++ {
		if i == labWarmRuns {
			deadline = time.Now().Add(d)
		}
		cfg := labyrinth.Default()
		cfg.Seed = seed*1_000_003 + int64(i)
		st, t0 := steal.ticks(), time.Now()
		app := labyrinth.New(cfg)
		o := buildOptions(app.MemWords(), seed)
		o.Trace = r.sink
		sys := harness.Build(system, o)
		var target tm.System = sys
		if traced {
			target = &spanSys{System: sys, atomic: rings}
		}
		app.Setup(target)
		setup := time.Since(t0)

		var kids [clients]int
		for t, ring := range rings {
			kids[t] = ring.n
		}
		before := readCounters(sys)
		st0, s0 := steal.ticks(), now()
		app.Run(clients)
		s1, st1 := now(), steal.ticks()
		delta := readCounters(sys).sub(before)

		r.attempted++
		if err := app.Validate(); err != nil {
			r.fail(1, "labyrinth run %d: %v", i, err)
		} else if c := delta.tm.Commits(); c != uint64(cfg.Pairs) {
			r.fail(1, "labyrinth run %d: %d commits for %d routing requests", i, c, cfg.Pairs)
		}
		if i < labWarmRuns {
			continue
		}
		r.ops++
		r.setup.add(setup, st0-st)
		r.sl.s = append(r.sl.s, slice{start: s0, end: s1, commits: delta.tm.Commits(), steal: st1 - st0})
		r.delta.add(delta)
		if traced {
			unionChildren(&r.spans, span{s0, s1}, rings, kids[:], cfg.Pairs)
		}
	}
	r.sl.markClean()
	for k, s := range r.sl.s {
		if r.sl.clean[k] {
			r.latNs = append(r.latNs, float64(s.end-s.start))
		}
	}
	return r
}

// unionChildren relates one app run to the Atomic spans both clients
// recorded during it: self time is the run minus the union of its
// children, which overlap across clients.
func unionChildren(s *spanStats, run span, rings []*spanRing, from []int, want int) {
	var kids []span
	for t, ring := range rings {
		for i := max(from[t], ring.first()); i < ring.n; i++ {
			kids = append(kids, ring.at(i))
		}
	}
	if len(kids) != want {
		s.misnested++
		return
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var covered, end int64
	for _, k := range kids {
		if k.start < run.start || k.end > run.end {
			s.misnested++
			return
		}
		s.atomicNs = append(s.atomicNs, float64(k.dur()))
		if k.start > end {
			covered += k.dur()
			end = k.end
		} else if k.end > end {
			covered += k.end - end
			end = k.end
		}
	}
	s.opNs = append(s.opNs, float64(run.dur()))
	s.selfNs = append(s.selfNs, float64(run.dur()-covered))
	s.opSum += float64(run.dur())
	s.coveredSum += float64(covered)
}
