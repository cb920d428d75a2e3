package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench/nrmw"
	"repro/internal/governor"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/tm"
	"repro/internal/trace"
)

// workload is one input set the benchmark runs against Part-HTM.
type workload struct {
	name     string
	shape    nrmw.Config // the nrmw shape; unused for labyrinth
	app      bool        // STAMP labyrinth instead of nrmw
	observed bool        // attach the whole telemetry plane
}

var workloads = []workload{
	{name: "fit", shape: nrmw.Fig3a()},
	{name: "labyrinth", app: true},
	{name: "fit-observed", shape: nrmw.Fig3a(), observed: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// system is the measured system: parthtm-bench's default Part-HTM build.
const system = "Part-HTM"

func buildOptions(words int, seed int64) harness.BuildOptions {
	return harness.BuildOptions{DataWords: words, Threads: clients, PhysCores: 4, Seed: seed}
}

// flightDir is where the flight recorder would dump; it only writes when a
// trigger fires and the benchmark never flushes it, so it stays empty.
const flightDir = ".bench_build/flight"

// plane is the full telemetry plane of the fit-observed workload: default
// governor, trace sink, profiler, registry and a flight recorder at its
// default cadence.
type plane struct {
	sink   *trace.Sink
	prof   *prof.Profile
	reg    *obs.Registry
	flight *obs.FlightRecorder
}

func newPlane(o *harness.BuildOptions) *plane {
	p := &plane{sink: trace.NewSink(0), prof: prof.New(prof.Config{}), reg: obs.NewRegistry()}
	p.flight = obs.NewFlightRecorder(p.reg, obs.FlightConfig{Dir: flightDir})
	gov := governor.DefaultConfig()
	o.Trace, o.Governor, o.Profile, o.Obs = p.sink, &gov, p.prof, p.reg
	return p
}

// counters is the activity of a measured interval: tm.Stats, the htm
// engine and the Go runtime.
type counters struct {
	tm         tm.Snapshot
	engCommits uint64
	engAborts  uint64
	allocBytes uint64
	mallocs    uint64
	gcs        uint64
	gcPauseNs  uint64
}

func readCounters(sys tm.System) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		tm:         sys.Stats().Snapshot(),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcs:        uint64(ms.NumGC),
		gcPauseNs:  ms.PauseTotalNs,
	}
	if eng := harness.EngineOf(sys); eng != nil {
		c.engCommits = eng.Stats().Commits.Load()
		c.engAborts = eng.Stats().Aborts()
	}
	return c
}

func (c counters) sub(p counters) counters {
	return counters{
		tm:         c.tm.Delta(p.tm),
		engCommits: c.engCommits - p.engCommits,
		engAborts:  c.engAborts - p.engAborts,
		allocBytes: c.allocBytes - p.allocBytes,
		mallocs:    c.mallocs - p.mallocs,
		gcs:        c.gcs - p.gcs,
		gcPauseNs:  c.gcPauseNs - p.gcPauseNs,
	}
}

// add sums the counters the metrics use.
func (c *counters) add(d counters) {
	t := &c.tm
	t.CommitsHTM += d.tm.CommitsHTM
	t.CommitsSW += d.tm.CommitsSW
	t.CommitsGL += d.tm.CommitsGL
	t.AbortsConflict += d.tm.AbortsConflict
	t.AbortsCapacity += d.tm.AbortsCapacity
	t.AbortsExplicit += d.tm.AbortsExplicit
	t.AbortsOther += d.tm.AbortsOther
	t.SerialNanos += d.tm.SerialNanos
	t.EscalationsBudget += d.tm.EscalationsBudget
	t.EscalationsStarve += d.tm.EscalationsStarve
	t.EscalationsLemming += d.tm.EscalationsLemming
	c.engCommits += d.engCommits
	c.engAborts += d.engAborts
	c.allocBytes += d.allocBytes
	c.mallocs += d.mallocs
	c.gcs += d.gcs
	c.gcPauseNs += d.gcPauseNs
}

// result is what one measured window produced.
type result struct {
	sl        slices    // nrmw: time slices; labyrinth: one per app run
	latNs     []float64 // latency of every op inside clean slices
	setup     setups
	ops       uint64   // measured ops
	delta     counters // measured window only
	attempted uint64   // ops checked, warm-up included
	failed    uint64
	problems  []string

	// Traced windows only.
	spans    spanStats
	sink     *trace.Sink
	sampleNs []float64 // benchmark-timed obs.Registry.Sample calls
}

func (r *result) fail(n uint64, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// spanStats relates each workload op span to its Atomic children.
type spanStats struct {
	opNs, selfNs, atomicNs []float64
	coveredSum, opSum      float64 // op time covered by Atomic spans, all op time
	misnested              uint64  // ops whose children are not one-per-op and inside it
}

func measure(w workload, seed int64, d time.Duration, traced bool) result {
	if w.app {
		return measureLabyrinth(seed, d, traced)
	}
	return measureNRMW(w, seed, d, traced)
}

// warmup is the unmeasured lead-in of a window: caches fill, the heap and
// the self-tuned fast path settle.
func warmup(d time.Duration) time.Duration { return min(d/10, time.Second) }
