package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// hammerConfig is smaller than testConfig: the race hammer builds many
// Analysis runs, and -race multiplies the cost of each.
func hammerConfig() Config {
	cfg := DefaultConfig()
	cfg.World.NumDomains = 2
	cfg.World.InstancesPerConceptMin = 40
	cfg.World.InstancesPerConceptMax = 80
	cfg.Corpus.NumSentences = 8000
	cfg.Clean.MaxRounds = 2
	return cfg
}

// TestAnalyzeParallelHammer runs Analyze concurrently from parallel
// subtests over one shared System. Under `go test -race` this is the
// regression gate for the worker pool in Analyze (shared tasks/errs
// slices written from worker goroutines) and for the feature extractor's
// cache fills; every run must also produce bit-identical tasks — the
// "deterministic regardless of parallelism" contract that the drift
// metrics depend on. Each run must return its own *Analysis: a run
// handed back a shared result would exercise none of that.
func TestAnalyzeParallelHammer(t *testing.T) {
	sys := Build(hammerConfig())
	ref, err := sys.Analyze(sys.KB)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Tasks) == 0 {
		t.Fatal("reference analysis built no tasks")
	}
	var mu sync.Mutex
	seen := map[*Analysis]bool{ref: true}
	for i := 0; i < 6; i++ {
		t.Run(fmt.Sprintf("analyze-%d", i), func(t *testing.T) {
			t.Parallel()
			a, err := sys.Analyze(sys.KB)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			dup := seen[a]
			seen[a] = true
			mu.Unlock()
			if dup {
				t.Fatal("Analyze returned an *Analysis another run already got")
			}
			if !reflect.DeepEqual(a.Concepts, ref.Concepts) {
				t.Fatalf("concept order differs across runs:\n%v\nvs\n%v", a.Concepts, ref.Concepts)
			}
			if len(a.Tasks) != len(ref.Tasks) {
				t.Fatalf("task count %d, want %d", len(a.Tasks), len(ref.Tasks))
			}
			for ti := range a.Tasks {
				if !reflect.DeepEqual(a.Tasks[ti].Instances, ref.Tasks[ti].Instances) {
					t.Fatalf("task %q instances differ between parallel analysis runs", a.Tasks[ti].Concept)
				}
			}
		})
	}
}

// TestDetectParallelHammer runs the full detect stage concurrently over
// one analysis — detectors read shared task slices; labels must match.
func TestDetectParallelHammer(t *testing.T) {
	sys := Build(hammerConfig())
	a, err := sys.Analyze(sys.KB)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sys.Detect(a, DetectMultiTask)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		t.Run(fmt.Sprintf("detect-%d", i), func(t *testing.T) {
			t.Parallel()
			got, err := sys.Detect(a, DetectMultiTask)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatal("detection labels differ across parallel runs")
			}
		})
	}
}
