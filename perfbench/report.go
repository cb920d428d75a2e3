package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/trace"
)

func pct(part, whole uint64) float64 { return 100 * ratio(float64(part), float64(whole)) }

// runEndToEnd measures the end-to-end metrics on an untraced run.
func runEndToEnd(w workload, seed int64, d time.Duration) report {
	r := measure(w, seed, d, false)
	var rep report
	t := r.delta.tm
	commits := t.Commits()
	fmt.Printf("host steal %.2f%% of CPU time; %.0f%% of %d slices clean\n",
		r.sl.stealPct(runtime.NumCPU()), r.sl.cleanShare(), len(r.sl.s))
	rep.set("tx_per_s", "1/s", r.sl.rate())
	rep.set("op_p75_us", "us", quantile(r.latNs, 0.75)/1e3)
	rep.set("op_p90_us", "us", quantile(r.latNs, 0.90)/1e3)
	rep.set("non_gl_commit_pct", "%", pct(t.CommitsHTM+t.CommitsSW, commits))
	rep.set("alloc_bytes_per_tx", "B", ratio(float64(r.delta.allocBytes), float64(commits)))
	rep.set("setup_s", "s", r.setup.median())
	finish(&rep, r)
	return rep
}

func finish(rep *report, rs ...result) {
	for _, r := range rs {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
}

// hookRounds alternates the fit and fit-observed probes so that host drift
// during the probe falls on both sides alike.
const hookRounds = 3

// runTraced measures the per-layer metrics. Its budget d is split: half on
// the traced workload, a fifth on an untraced window of the same workload
// (the tracing overhead), a fifth on the fit vs fit-observed hooks probe,
// and the rest on the ledger microloops.
func runTraced(w workload, seed int64, d time.Duration) report {
	tr := measure(w, seed, d/2, true)
	un := measure(w, seed, d/5, false)
	checked := []*result{&tr, &un}

	fit, _ := workloadByName("fit")
	observed, _ := workloadByName("fit-observed")
	var fitNs, obsNs, sampleNs []float64
	for i := 0; i < hookRounds; i++ {
		f := measure(fit, seed, d/(10*hookRounds), true)
		o := measure(observed, seed, d/(10*hookRounds), true)
		fitNs = append(fitNs, f.spans.atomicNs...)
		obsNs = append(obsNs, o.spans.atomicNs...)
		sampleNs = append(sampleNs, o.sampleNs...)
		checked = append(checked, &f, &o)
	}

	var rep report
	layerMetrics(&rep, tr)
	rep.set("hooks.ns_per_tx", "ns", mean(obsNs)-mean(fitNs))
	rep.set("obs.sample_us", "us", median(sampleNs)/1e3)
	rep.set("trace.tx_per_s", "1/s", tr.sl.rate())
	rep.set("trace.untraced_tx_per_s", "1/s", un.sl.rate())
	rep.set("trace.overhead_pct", "%", 100*ratio(un.sl.rate()-tr.sl.rate(), un.sl.rate()))
	runLedger(&rep, seed, d-d/2-d/5-2*hookRounds*(d/(10*hookRounds)))

	for _, r := range checked {
		if r.spans.misnested > 0 {
			r.fail(r.spans.misnested, "%d workload ops without exactly one nested Atomic span", r.spans.misnested)
		}
		finish(&rep, *r)
	}
	return rep
}

// layerMetrics derives the per-layer metrics of one traced window.
func layerMetrics(rep *report, r result) {
	t := r.delta.tm
	commits := float64(t.Commits())
	aborts := float64(t.Aborts())
	s := r.spans

	rep.set("bench.op_ns", "ns", median(s.opNs))
	rep.set("bench.self_ns", "ns", median(s.selfNs))
	rep.set("bench.atomic_share", "ratio", ratio(s.coveredSum, s.opSum))
	rep.set("bench.allocs_per_op", "count", ratio(float64(r.delta.mallocs), float64(r.ops)))
	rep.set("bench.op_p99_us", "us", quantile(r.latNs, 0.99)/1e3)

	rep.set("tm.atomic_p50_ns", "ns", quantile(s.atomicNs, 0.50))
	rep.set("tm.atomic_p99_ns", "ns", quantile(s.atomicNs, 0.99))
	rep.set("tm.serial_ns_per_tx", "ns", ratio(float64(t.SerialNanos), commits))
	rep.set("tm.escalations_per_ktx", "count", 1000*ratio(float64(t.Escalations()), commits))
	rep.set("tm.aborts_conflict_per_tx", "count", ratio(float64(t.AbortsConflict), commits))
	rep.set("tm.aborts_capacity_per_tx", "count", ratio(float64(t.AbortsCapacity), commits))
	rep.set("tm.aborts_other_per_tx", "count", ratio(float64(t.AbortsOther), commits))
	rep.set("tm.aborts_explicit_per_tx", "count", ratio(float64(t.AbortsExplicit), commits))

	rep.set("exec.attempts_per_commit", "count", ratio(commits+aborts, commits))

	rep.set("path.htm_commit_pct", "%", pct(t.CommitsHTM, t.Commits()))
	rep.set("path.sw_commit_pct", "%", pct(t.CommitsSW, t.Commits()))
	rep.set("path.gl_commit_pct", "%", pct(t.CommitsGL, t.Commits()))
	lat := r.sink.Latency()
	for p := uint8(0); p < trace.PathCount; p++ {
		rep.set("path."+trace.PathName(p)+"_p50_us", "us", float64(lat.Path[p].P50)/1e3)
	}
	// Engine commits beyond the fast-path ones are sub-HTM transactions of
	// the partitioned path, wasted ones included.
	rep.set("core.subtx_per_sw_commit", "count",
		ratio(float64(r.delta.engCommits)-float64(t.CommitsHTM), float64(t.CommitsSW)))

	engAttempts := float64(r.delta.engCommits + r.delta.engAborts)
	rep.set("htm.commit_ratio", "ratio", ratio(float64(r.delta.engCommits), engAttempts))
	rep.set("htm.commits_per_tx", "count", ratio(float64(r.delta.engCommits), commits))

	rep.set("host.steal_pct", "%", r.sl.stealPct(runtime.NumCPU()))
	rep.set("host.clean_slice_pct", "%", r.sl.cleanShare())

	rep.set("gc.cycles_per_ktx", "count", 1000*ratio(float64(r.delta.gcs), commits))
	rep.set("gc.pause_us", "us", ratio(float64(r.delta.gcPauseNs), float64(r.delta.gcs))/1e3)
}
