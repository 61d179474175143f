package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json
// and the metrics this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, b.Workloads[i].Name, w)
		}
	}
}

func TestResultLineRequiresEveryMetric(t *testing.T) {
	values := map[string]float64{}
	for _, d := range endToEnd {
		values[d.name] = 1.5
	}
	line, err := resultLine(tally{Attempted: 3}, endToEnd, values)
	if err != nil {
		t.Fatal(err)
	}
	var got resultJSON
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 3 || len(got.Metrics) != len(endToEnd) {
		t.Errorf("result %s", line)
	}
	if _, err := resultLine(tally{Attempted: 3, Failed: 1}, endToEnd, values); err != nil {
		t.Fatal(err)
	}
	delete(values, "setup_s")
	if _, err := resultLine(tally{Attempted: 1}, endToEnd, values); err == nil {
		t.Error("a missing metric must be an error")
	}
}

func TestCPUSecondsGrowsWithWork(t *testing.T) {
	before, err := cpuSeconds(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	// Spin, not sleep: a sleep would use no CPU.
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
	}
	after, err := cpuSeconds(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 0.02 || d > 5 {
		t.Errorf("CPU time grew by %v s over 50 ms of work", d)
	}
}
