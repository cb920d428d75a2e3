package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the program must honour.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// checkReport asserts that rep is correct and reports exactly the metrics
// of want, with their units.
func checkReport(t *testing.T, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	var got, exp []string
	for k, m := range rep.Metrics {
		got = append(got, k+" "+m.Unit)
	}
	for _, m := range want {
		exp = append(exp, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if len(got) != len(exp) {
		t.Fatalf("metrics %v, BENCHMARK.json lists %v", got, exp)
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("metrics %v, BENCHMARK.json lists %v", got, exp)
		}
	}
}

// TestWorkloads runs every workload briefly, untraced and traced: each must
// pass its correctness checks and print exactly the metrics BENCHMARK.json
// declares. Run it under -race too: each client owns one tm thread id.
func TestWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the program", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			checkReport(t, runEndToEnd(w, 3, 50*time.Millisecond), s.EndToEnd)
			checkReport(t, runTraced(w, 3, 100*time.Millisecond), s.PerLayer)
		})
	}
}

// TestChecksCatchCorruption plants each defect the nrmw checks exist for.
func TestChecksCatchCorruption(t *testing.T) {
	w, _ := workloadByName("fit")
	in := setupNRMW(w, 1, false)
	defer in.close()
	m := in.sys.Memory()

	var r result
	checkArrays(&r, in, w.shape, true)
	if r.failed != 0 {
		t.Fatalf("fresh arrays flagged: %v", r.problems)
	}
	// Element 7 belongs to client 0, whose writes are at least N*1.
	m.Store(in.dst+7, 1)
	checkArrays(&r, in, w.shape, false)
	if r.failed == 0 {
		t.Fatal("dst value no read allows passed")
	}
	m.Store(in.dst+7, 0)

	r = result{}
	m.Store(in.src+3, 0)
	checkArrays(&r, in, w.shape, false)
	if r.failed == 0 {
		t.Fatal("changed src passed")
	}

	r = result{}
	checkOnce(&r, "window", window{ops: 5})
	if r.failed == 0 {
		t.Fatal("ops without commits passed")
	}
}
