package harness

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/mem"
	"repro/internal/tm"
)

// TestSoakStormLiveness is the deterministic version of the soak
// experiment's acceptance invariant: under a 100%-hardware-begin-failure
// storm, every system — governed, watchdog attached — keeps committing
// through its software/lock fallback (no hardware commits, no stall longer
// than the watchdog deadline), and once the storm clears, hardware takes
// back its commits and throughput recovers to within 1.5× of the same fixed
// workload on an identical system that never saw the storm, timed side by
// side.
func TestSoakStormLiveness(t *testing.T) {
	const threads = 4
	const txnsPerThread = 800
	for _, name := range SystemNames {
		t.Run(name, func(t *testing.T) {
			_, phases, err := SoakFaultConfig("storm", 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(phases) != 3 || phases[1] != "storm" {
				t.Fatalf("storm campaign phases = %v", phases)
			}
			ccfg := core.DefaultConfig()
			ccfg.RetryBudget = 4
			ccfg.MaxBackoff = 0
			build := func() (tm.System, *governor.Governor, mem.Addr) {
				fcfg, _, err := SoakFaultConfig("storm", 1)
				if err != nil {
					t.Fatal(err)
				}
				sys := Build(name, BuildOptions{
					DataWords: 1 << 12, Threads: threads, PhysCores: 4, Seed: 1,
					Core:  &ccfg,
					Fault: fcfg,
				})
				gov := governor.New(governor.DefaultConfig())
				sys.(interface{ SetGovernor(*governor.Governor) }).SetGovernor(gov)
				return sys, gov, sys.Memory().Alloc(1)
			}
			sys, gov, a := build()
			inj := (*fault.Injector)(nil)
			if eng := EngineOf(sys); eng != nil {
				inj = eng.Injector()
			}
			// ref is an identical system that never leaves the pre-storm
			// phase: the recovery bound compares sys with it.
			ref, _, refA := build()

			total := 0
			runPass := func(sys tm.System, a mem.Addr) time.Duration {
				start := time.Now()
				var wg sync.WaitGroup
				for th := 0; th < threads; th++ {
					wg.Add(1)
					go func(th int) {
						defer wg.Done()
						for i := 0; i < txnsPerThread; i++ {
							sys.Atomic(th, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
						}
					}(th)
				}
				wg.Wait()
				return time.Since(start)
			}
			runPhase := func() time.Duration {
				total += threads * txnsPerThread
				return runPass(sys, a)
			}
			nextPhase := func() {
				if inj != nil {
					inj.AdvancePhase()
				}
				sys.Stats().Reset()
			}
			watch := func() (*governor.Watchdog, *collectorT) {
				wcfg := governor.DefaultWatchdogConfig()
				wcfg.Interval = time.Millisecond
				wd := governor.NewWatchdog(wcfg, sys.Stats(), threads)
				wd.AttachGovernor(gov)
				c := &collectorT{}
				wd.OnAlarm(c.add)
				wd.Start()
				return wd, c
			}

			// Pre-storm: warm both systems up.
			runPhase()
			runPass(ref, refA)

			// Storm: every hardware begin fails for the whole phase.
			nextPhase()
			wd, alarms := watch()
			runPhase()
			wd.Stop()
			st := sys.Stats().Snapshot()
			if st.Commits() != threads*txnsPerThread {
				t.Fatalf("storm commits = %d, want %d (lost transactions)",
					st.Commits(), threads*txnsPerThread)
			}
			if inj != nil && st.CommitsHTM != 0 {
				t.Fatalf("CommitsHTM = %d under a total begin storm", st.CommitsHTM)
			}
			if n := alarms.stalls(); n != 0 {
				t.Fatalf("%d stall alarms during the storm: no worker may stall past the watchdog deadline", n)
			}
			if inj != nil && st.FaultsInjected == 0 {
				t.Fatal("storm phase injected nothing")
			}

			// Clear: the breaker must let hardware back in and throughput
			// must recover. One warm-up pass absorbs the probe ramp. The
			// timed passes alternate between sys and ref on one P, and each
			// side is summed up by its lower quartile. On a shared 2-core
			// host one pass time swings by up to 2x over tens of
			// milliseconds and spikes far past that; with several Ps a pass
			// also runs 3x faster whenever its workers happen not to
			// overlap. A pass before the storm and one after it therefore
			// differed by up to 4x with no change in the system; passes
			// taken side by side on one P differ by the system alone.
			nextPhase()
			runPhase()
			sys.Stats().Reset()
			ref.Stats().Reset()
			var post, pre [9]time.Duration
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				for i := range post {
					pre[i] = runPass(ref, refA)
					post[i] = runPhase()
				}
			}()
			t.Logf("pre %v post %v", pre, post)
			if inj != nil {
				clear := sys.Stats().Snapshot()
				if clear.CommitsHTM == 0 {
					t.Fatalf("no hardware commits after the storm cleared (breaker stuck open?): %+v", clear)
				}
				// Both systems committed the same transactions: hardware
				// must take at least two thirds of the commits it takes in
				// the system that never saw the storm.
				if refHTM := ref.Stats().Snapshot().CommitsHTM; 3*clear.CommitsHTM < 2*refHTM {
					t.Fatalf("%d hardware commits after the storm cleared, %d without a storm: hardware did not recover",
						clear.CommitsHTM, refHTM)
				}
			}
			slices.Sort(pre[:])
			slices.Sort(post[:])
			if limit := 3 * pre[2] / 2; post[2] > limit {
				t.Fatalf("post-storm passes took %v (lower quartile), more than 1.5× the storm-free system's %v", post[2], pre[2])
			}

			if got := sys.Memory().Load(a); got != uint64(total) {
				t.Fatalf("counter = %d, want %d", got, total)
			}
			if got, want := ref.Memory().Load(refA), uint64((1+len(pre))*threads*txnsPerThread); got != want {
				t.Fatalf("storm-free counter = %d, want %d", got, want)
			}
		})
	}
}

// collectorT gathers watchdog alarms thread-safely.
type collectorT struct {
	mu     sync.Mutex
	alarms []governor.Alarm
}

func (c *collectorT) add(a governor.Alarm) {
	c.mu.Lock()
	c.alarms = append(c.alarms, a)
	c.mu.Unlock()
}

func (c *collectorT) stalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, a := range c.alarms {
		if a.Kind == governor.AlarmStall {
			n++
		}
	}
	return n
}

// TestSoakExperimentRuns drives the registered soak experiment end to end
// on a short window and checks the report shape: one row per (system,
// phase), phases in campaign order, throughput present, and the storm rows
// of engine-backed systems free of hardware commits.
func TestSoakExperimentRuns(t *testing.T) {
	exp, ok := Find("soak")
	if !ok {
		t.Fatal("soak experiment not registered")
	}
	systems := []string{"HTM-GL", "Part-HTM"}
	res, err := exp.Execute(Options{
		Threads:  []int{2},
		Duration: 40 * time.Millisecond,
		Systems:  systems,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, phases, _ := SoakFaultConfig("storm", 1)
	if want := len(systems) * len(phases); len(res.Reports) != want {
		t.Fatalf("%d reports, want %d", len(res.Reports), want)
	}
	for i, rep := range res.Reports {
		wantPhase := phases[i%len(phases)]
		if rep.Phase != wantPhase {
			t.Fatalf("report %d phase %q, want %q", i, rep.Phase, wantPhase)
		}
		if rep.Throughput == nil || rep.Throughput.OpsPerSec <= 0 {
			t.Fatalf("report %d (%s/%s) has no throughput", i, rep.System, rep.Phase)
		}
		if rep.Stats.Commits() == 0 {
			t.Fatalf("report %d (%s/%s) committed nothing", i, rep.System, rep.Phase)
		}
		if rep.Phase == "storm" && rep.Stats.CommitsHTM != 0 {
			t.Fatalf("%s storm phase has %d hardware commits", rep.System, rep.Stats.CommitsHTM)
		}
	}
	if res.Text() == "" {
		t.Fatal("empty text rendering")
	}
	// The unknown-campaign error path.
	if _, err := exp.Execute(Options{Campaign: "nope", Duration: time.Millisecond}); err == nil {
		t.Fatal("unknown campaign accepted")
	}
}

// TestCheckRegression pins the CI regression gate: drops beyond the
// threshold are flagged, everything else passes.
func TestCheckRegression(t *testing.T) {
	mk := func(ktxs float64) *ResultSet {
		return &ResultSet{Results: []*Result{{
			ID: "chaos",
			Reports: []SystemReport{{
				System: "Part-HTM", Threads: 4,
				Throughput: &ThroughputResult{Projected: ktxs * 1e3},
			}},
		}}}
	}
	bad, err := CheckRegression(mk(100), mk(85), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 {
		t.Fatalf("15%% drop with 10%% gate: %d rows flagged, want 1", len(bad))
	}
	if bad[0].OldKTxs != 100 || bad[0].NewKTxs != 85 {
		t.Fatalf("flagged row carries %v/%v", bad[0].OldKTxs, bad[0].NewKTxs)
	}
	if bad, err = CheckRegression(mk(100), mk(95), 10); err != nil || len(bad) != 0 {
		t.Fatalf("5%% drop with 10%% gate flagged: %v %v", bad, err)
	}
	if bad, err = CheckRegression(mk(100), mk(130), 10); err != nil || len(bad) != 0 {
		t.Fatalf("improvement flagged: %v %v", bad, err)
	}
	if _, err = CheckRegression(mk(100), &ResultSet{}, 10); err == nil {
		t.Fatal("disjoint sets must error")
	}
}
