// Package bench times the end-to-end pipeline — world → corpus →
// extraction → analysis → cleaning — at several scales, once on the
// serial path (Parallelism = 1) and once with the worker pools engaged,
// and reports the comparison as the BENCH_pipeline.json artifact.
//
// Beyond wall times, every A/B pair double-checks the project's central
// parallelism guarantee: both runs must end in byte-identical knowledge
// bases (compared by pair fingerprint). A benchmark that got faster by
// drifting nondeterministic would defeat the whole point of the paper's
// reproduction, so Identical is part of the artifact schema.
package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"driftclean/internal/core"
	"driftclean/internal/corpus"
	"driftclean/internal/eval"
	"driftclean/internal/extract"
	"driftclean/internal/kb"
	"driftclean/internal/world"
)

// Scale is one benchmarked pipeline size.
type Scale struct {
	// Name labels the scale in the artifact ("small", "medium", ...).
	Name string `json:"name"`
	// Sentences is the corpus size.
	Sentences int `json:"sentences"`
	// CleanRounds caps the detect-and-clean rounds timed at this scale
	// (each round re-runs the full analysis, the dominant cost).
	CleanRounds int `json:"clean_rounds"`
}

// DefaultScales returns the standard benchmark ladder. The top rung
// matches the default experiment corpus.
func DefaultScales() []Scale {
	return []Scale{
		{Name: "small", Sentences: 12000, CleanRounds: 1},
		{Name: "medium", Sentences: 40000, CleanRounds: 1},
		{Name: "large", Sentences: 120000, CleanRounds: 1},
	}
}

// SmokeScales returns the single tiny scale the CI smoke run uses.
func SmokeScales() []Scale {
	return []Scale{{Name: "smoke", Sentences: 6000, CleanRounds: 1}}
}

// StageSeconds breaks one run's wall time down by pipeline stage.
type StageSeconds struct {
	World   float64 `json:"world_s"`
	Corpus  float64 `json:"corpus_s"`
	Extract float64 `json:"extract_s"`
	Analyze float64 `json:"analyze_s"`
	Clean   float64 `json:"clean_s"`
	Total   float64 `json:"total_s"`
}

// StageMem is the heap usage of one pipeline stage: AllocMB is the heap
// allocated during the stage (MiB), Mallocs the allocation count. Both
// are deltas of runtime.MemStats totals read at the stage boundaries.
type StageMem struct {
	AllocMB float64 `json:"alloc_mb"`
	Mallocs uint64  `json:"mallocs"`
}

// StageMems breaks one run's allocation behavior down by stage, so a
// memory regression localizes to the stage that caused it instead of
// hiding inside the run totals.
type StageMems struct {
	World   StageMem `json:"world"`
	Corpus  StageMem `json:"corpus"`
	Extract StageMem `json:"extract"`
	Analyze StageMem `json:"analyze"`
	Clean   StageMem `json:"clean"`
}

// RunStats reports one timed pipeline run.
type RunStats struct {
	// Parallelism is the worker count the run was configured with.
	Parallelism int          `json:"parallelism"`
	Stages      StageSeconds `json:"stages"`
	// StageMem breaks AllocMB/Mallocs down per stage.
	StageMem StageMems `json:"stage_mem"`
	// AllocMB is the heap allocated over the run (MiB); Mallocs the
	// allocation count. Both are deltas of runtime.MemStats totals.
	AllocMB float64 `json:"alloc_mb"`
	Mallocs uint64  `json:"mallocs"`
	// Pairs and Fingerprint identify the final (cleaned) KB state; the
	// serial and parallel runs of a scale must agree on both.
	Pairs       int    `json:"kb_pairs"`
	Fingerprint string `json:"kb_fingerprint"`
}

// ScaleResult pairs the serial and parallel runs of one scale.
type ScaleResult struct {
	Scale
	Serial   RunStats `json:"serial"`
	Parallel RunStats `json:"parallel"`
	// Speedup is serial total time over parallel total time.
	Speedup float64 `json:"speedup"`
	// Identical reports that both runs produced the same KB. It must be
	// true; the field exists so the artifact proves it was checked.
	Identical bool `json:"identical"`
}

// Result is the full artifact written to BENCH_pipeline.json.
type Result struct {
	// GeneratedUnix is the artifact creation time (Unix seconds).
	GeneratedUnix int64 `json:"generated_unix"`
	// CPUs records the machine the numbers came from: speedups are only
	// expected to be meaningful with 4+ cores.
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// ParallelWorkers is the worker count of every parallel arm:
	// NumCPU, floored at 4 so the concurrent code paths (and the
	// determinism A/B) are exercised even on small CI machines.
	ParallelWorkers int           `json:"parallel_workers"`
	Scales          []ScaleResult `json:"scales"`
	// Ingest holds the incremental-ingest scenarios (RunIngest), when
	// the run included any.
	Ingest []IngestResult `json:"ingest,omitempty"`
}

// parallelWorkers picks the worker count for the parallel arm.
func parallelWorkers() int {
	if n := runtime.NumCPU(); n > 4 {
		return n
	}
	return 4
}

// Run times every scale serially and in parallel and assembles the
// artifact. progress, when non-nil, receives one human-readable line per
// completed run.
func Run(scales []Scale, progress func(string)) *Result {
	res := &Result{
		GeneratedUnix:   time.Now().Unix(),
		CPUs:            runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		ParallelWorkers: parallelWorkers(),
	}
	for _, sc := range scales {
		sr := ScaleResult{Scale: sc}
		sr.Serial = timeRun(sc, 1)
		report(progress, sc, sr.Serial)
		sr.Parallel = timeRun(sc, res.ParallelWorkers)
		report(progress, sc, sr.Parallel)
		if sr.Parallel.Stages.Total > 0 {
			sr.Speedup = sr.Serial.Stages.Total / sr.Parallel.Stages.Total
		}
		sr.Identical = sr.Serial.Fingerprint == sr.Parallel.Fingerprint &&
			sr.Serial.Pairs == sr.Parallel.Pairs
		res.Scales = append(res.Scales, sr)
	}
	return res
}

func report(progress func(string), sc Scale, rs RunStats) {
	if progress == nil {
		return
	}
	progress(fmt.Sprintf("%-7s p=%-2d  total %6.2fs  (corpus %.2fs, extract %.2fs, analyze %.2fs, clean %.2fs)  %d pairs  mallocs %dk (analyze %dk, clean %dk)",
		sc.Name, rs.Parallelism, rs.Stages.Total,
		rs.Stages.Corpus, rs.Stages.Extract, rs.Stages.Analyze, rs.Stages.Clean, rs.Pairs,
		rs.Mallocs/1000, rs.StageMem.Analyze.Mallocs/1000, rs.StageMem.Clean.Mallocs/1000))
}

// timeRun executes one full pipeline run at the given worker count,
// timing each stage.
func timeRun(sc Scale, parallelism int) RunStats {
	cfg := core.DefaultConfig()
	cfg.Corpus.NumSentences = sc.Sentences
	cfg.Clean.MaxRounds = sc.CleanRounds
	cfg.Parallelism = parallelism
	cfg.Corpus.Parallelism = parallelism
	cfg.Extract.Parallelism = parallelism
	cfg.Clean.Parallelism = parallelism

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	rs := RunStats{Parallelism: parallelism}
	// memN snapshots are read right at the stage boundaries (the reads are
	// microseconds, far below timer resolution at these scales) so each
	// stage's allocation behavior is reported on its own.
	var mem1, mem2, mem3, mem4, after runtime.MemStats
	t0 := time.Now()
	w := world.New(cfg.World)
	t1 := time.Now()
	runtime.ReadMemStats(&mem1)
	c := corpus.Generate(w, cfg.Corpus)
	t2 := time.Now()
	runtime.ReadMemStats(&mem2)
	ext := extract.Run(c, cfg.Extract)
	t3 := time.Now()
	runtime.ReadMemStats(&mem3)
	sys := &core.System{
		Cfg:        cfg,
		World:      w,
		Corpus:     c,
		Extraction: ext,
		KB:         ext.KB,
		Oracle:     eval.NewOracle(w, c),
	}
	// One explicit analysis pass is timed on its own; the cleaning rounds
	// below re-run it internally as part of detection.
	if _, err := sys.Analyze(sys.KB); err != nil {
		panic(fmt.Sprintf("bench: analyze failed: %v", err))
	}
	t4 := time.Now()
	runtime.ReadMemStats(&mem4)
	if _, err := sys.CleanDPs(core.DetectMultiTask); err != nil {
		panic(fmt.Sprintf("bench: cleaning failed: %v", err))
	}
	t5 := time.Now()

	runtime.ReadMemStats(&after)

	rs.Stages = StageSeconds{
		World:   t1.Sub(t0).Seconds(),
		Corpus:  t2.Sub(t1).Seconds(),
		Extract: t3.Sub(t2).Seconds(),
		Analyze: t4.Sub(t3).Seconds(),
		Clean:   t5.Sub(t4).Seconds(),
		Total:   t5.Sub(t0).Seconds(),
	}
	rs.StageMem = StageMems{
		World:   memDelta(&before, &mem1),
		Corpus:  memDelta(&mem1, &mem2),
		Extract: memDelta(&mem2, &mem3),
		Analyze: memDelta(&mem3, &mem4),
		Clean:   memDelta(&mem4, &after),
	}
	rs.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	rs.Mallocs = after.Mallocs - before.Mallocs
	rs.Pairs = sys.KB.NumPairs()
	rs.Fingerprint = Fingerprint(sys.KB)
	return rs
}

// memDelta computes one stage's StageMem from the MemStats snapshots at
// its boundaries.
func memDelta(from, to *runtime.MemStats) StageMem {
	return StageMem{
		AllocMB: float64(to.TotalAlloc-from.TotalAlloc) / (1 << 20),
		Mallocs: to.Mallocs - from.Mallocs,
	}
}

// CheckAgainst compares a freshly produced Result with a previously
// written artifact (typically the committed BENCH_pipeline.json): for
// every scale the two share — matched by name, corpus size and round
// cap — the final KBs must agree on fingerprint and pair count. It
// returns one human-readable line per drift; a non-empty return means
// the byte-identical-output guarantee broke between the two artifacts.
func CheckAgainst(res *Result, path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading previous artifact: %w", err)
	}
	var old Result
	if err := json.Unmarshal(data, &old); err != nil {
		return nil, fmt.Errorf("parsing previous artifact %s: %w", path, err)
	}
	oldByName := make(map[string]ScaleResult, len(old.Scales))
	for _, sc := range old.Scales {
		oldByName[sc.Name] = sc
	}
	var drifts []string
	shared := 0
	for _, sc := range res.Scales {
		prev, ok := oldByName[sc.Name]
		if !ok || prev.Sentences != sc.Sentences || prev.CleanRounds != sc.CleanRounds {
			continue
		}
		shared++
		if sc.Serial.Fingerprint != prev.Serial.Fingerprint || sc.Serial.Pairs != prev.Serial.Pairs {
			drifts = append(drifts, fmt.Sprintf(
				"scale %s: KB fingerprint %s (%d pairs) != previous %s (%d pairs)",
				sc.Name, sc.Serial.Fingerprint, sc.Serial.Pairs,
				prev.Serial.Fingerprint, prev.Serial.Pairs))
		}
	}
	oldIngest := make(map[string]IngestResult, len(old.Ingest))
	for _, ir := range old.Ingest {
		oldIngest[ir.Name] = ir
	}
	for _, ir := range res.Ingest {
		prev, ok := oldIngest[ir.Name]
		if !ok || prev.IngestScale != ir.IngestScale {
			continue
		}
		shared++
		if ir.Fingerprint != prev.Fingerprint || ir.Pairs != prev.Pairs {
			drifts = append(drifts, fmt.Sprintf(
				"ingest scale %s: KB fingerprint %s (%d pairs) != previous %s (%d pairs)",
				ir.Name, ir.Fingerprint, ir.Pairs, prev.Fingerprint, prev.Pairs))
		}
	}
	if shared == 0 {
		return nil, fmt.Errorf("no shared scales between this run and %s — nothing was checked", path)
	}
	return drifts, nil
}

// Fingerprint hashes a KB's full pair set (with per-pair support counts)
// into a short hex digest. Two KBs with equal fingerprints and pair
// counts are treated as identical for A/B determinism checks.
func Fingerprint(k *kb.KB) string {
	h := fnv.New64a()
	for _, p := range k.Pairs() {
		fmt.Fprintf(h, "%s\x00%s\x00%d\x1f", p.Concept, p.Instance, k.Count(p.Concept, p.Instance))
	}
	fmt.Fprintf(h, "|ex=%d", k.NumExtractions())
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteJSON writes the artifact, pretty-printed, to path.
func (r *Result) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding artifact: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing artifact: %w", err)
	}
	return nil
}
