package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"driftclean"
	"driftclean/internal/bench"
	"driftclean/internal/clean"
	"driftclean/internal/core"
	"driftclean/internal/corpus"
	"driftclean/internal/dp"
	"driftclean/internal/eval"
	"driftclean/internal/extract"
	"driftclean/internal/kb"
	"driftclean/internal/rank"
	"driftclean/internal/snapshot"
	"driftclean/internal/world"
)

// Workload sizes. The batch corpus is the one the serving KB is built
// from; the trickle corpus keeps a checkpoint near one second on two
// cores at the default five cleaning rounds.
const (
	batchSentences   = 40000
	trickleSentences = 12000
	trickleBatch     = 4
	// trickleTail is how many 4-sentence checkpoints each trickle
	// session keeps back from its bulk load: more than any run ingests.
	trickleTail = 300
	// batchCorpora and trickleCorpora are how many corpora one run
	// covers, each drawn from the workload seed. Between corpora of
	// the default world a run's cost varies by about 8% at 40k sentences
	// and 20% at 12k (standard deviation over mean), mostly with the
	// KB's size; the mean over several corpora keeps two seeds much
	// closer than two corpora.
	batchCorpora   = 3
	trickleCorpora = 8
	// batchSetups is how many set-ups a batch run times, cycling over
	// its corpora. One takes about 0.15 s.
	batchSetups = 9
)

// pipelineConfig is the shipped default configuration with corpus
// number corpus of the workload seed. The world stays the default one:
// a redrawn world changes the number and size of concepts, and with
// them the work of a run, by about 20% between seeds, which would hide
// any regression smaller than that. A redrawn corpus over the same world
// varies the sentences, and the work much less.
func pipelineConfig(seed int64, corpus, sentences int) core.Config {
	cfg := driftclean.DefaultConfig()
	cfg.Corpus.Seed = mix(seed, uint64(10+corpus))
	cfg.Corpus.NumSentences = sentences
	return cfg
}

// outcome is what one run or checkpoint produced, for output checks.
type outcome struct {
	Fingerprint    string
	PrecisionAfter float64
	RCorr          float64
}

func (o outcome) String() string {
	return fmt.Sprintf("fingerprint %s precision_after %s rcorr %s",
		o.Fingerprint, fmtFloat(o.PrecisionAfter), fmtFloat(o.RCorr))
}

// same compares two outcomes exactly.
func (o outcome) same(p outcome) bool { return o.String() == p.String() }

// fmtFloat renders a float exactly (shortest round-trip form), so
// outputs compare as strings rather than with float equality.
func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func reportOutcome(rep *driftclean.Report) outcome {
	return outcome{bench.Fingerprint(rep.System.KB), rep.PrecisionAfter, rep.RCorr}
}

// cleanErr treats a checkpoint that found no drifting points as a
// success: the report is complete and the checkpoint is committed.
func cleanErr(err error) error {
	if errors.Is(err, driftclean.ErrNoDPsDetected) {
		return nil
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedSetups runs setup(i) for i in [0, n) and returns the median
// wall time in seconds.
func timedSetups(n int, setup func(i int) error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return medianOf(secs), nil
}

// minRounds is how many rounds over its corpora a plain pipeline run
// makes at least, so that every corpus has a fastest of two. A traced
// run makes one: it reports per-layer medians, not a fastest run.
func minRounds(e env) int {
	if e.trace {
		return 1
	}
	return 2
}

// runBatch times driftclean.CleanContext on 40k-sentence corpora, one
// cold checkpoint per run, in rounds over batchCorpora corpora.
func runBatch(e env, r *report) error {
	cfgs := make([]core.Config, batchCorpora)
	for j := range cfgs {
		cfgs[j] = pipelineConfig(e.seed, j, batchSentences)
	}
	setup, err := timedSetups(batchSetups, func(i int) error { core.Prepare(cfgs[i%batchCorpora]); return nil })
	if err != nil {
		return err
	}
	pins := batchPins()[e.seed]
	first := make([]*outcome, batchCorpora)
	check := func(j int, o outcome) {
		switch {
		case pins != nil && !o.same(pins[j]):
			r.markFailed("pin")
			r.lines = append(r.lines, fmt.Sprintf("check FAILED: corpus %d: %v, pinned %v", j, o, pins[j]))
		case first[j] == nil:
			first[j] = &o
		case !o.same(*first[j]):
			r.markFailed("nondeterministic")
			r.lines = append(r.lines, fmt.Sprintf("check FAILED: corpus %d: %v, first run %v", j, o, *first[j]))
		}
	}
	ctx := context.Background()
	plain := make([][]float64, batchCorpora)
	var all, traced []float64
	var tp tracedStats
	rec := newRecorder()
	trace := int64(0)
	err = rounds(time.Now().Add(e.seconds), minRounds(e), func(int) error {
		for j, cfg := range cfgs {
			trace++
			t0 := time.Now()
			rep, err := driftclean.CleanContext(ctx, driftclean.WithConfig(cfg))
			plain[j] = append(plain[j], ms(time.Since(t0)))
			if err = cleanErr(err); err != nil {
				r.fail("error")
				r.lines = append(r.lines, "batch run failed: "+err.Error())
				continue
			}
			r.ok()
			check(j, reportOutcome(rep))
			if !e.trace {
				continue
			}
			// Traced mirror of the same run, alternating with the plain one.
			t0 = time.Now()
			p := openTraced(cfg, rec, trace)
			o, err := p.checkpoint(p.sys.Corpus.Sentences, trace, &tp)
			traced = append(traced, ms(time.Since(t0)))
			if err != nil {
				r.fail("error")
				r.lines = append(r.lines, "traced batch run failed: "+err.Error())
				continue
			}
			r.ok()
			check(j, o)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, xs := range plain {
		all = append(all, xs...)
	}
	if pins != nil {
		r.lines = append(r.lines, fmt.Sprintf("check %d corpora against the pins of seed %d", batchCorpora, e.seed))
	} else {
		r.lines = append(r.lines, fmt.Sprintf("check seed %d has no pins: runs of a corpus compared with each other only", e.seed))
	}
	rss, err := peakRSSMiB(0)
	if err != nil {
		return err
	}
	latency := fastestMean(plain)
	r.e2e["setup_s"] = setup
	r.e2e["peak_rss_mb"] = rss
	r.e2e["latency_ms"] = latency
	r.e2e["throughput_per_s"] = batchSentences / (latency / 1000)
	r.note("setup_s", setup, "s", fmt.Sprintf("world + corpus, median of %d, %d per corpus", batchSetups, batchSetups/batchCorpora))
	r.note("batch_run_ms", latency, "ms", fmt.Sprintf("mean over %d corpora of each one's fastest of %d runs", batchCorpora, len(plain[0])))
	r.note("batch_sentences_per_s", r.e2e["throughput_per_s"], "sentences/s", "at batch_run_ms")
	r.note("batch_run_p50_ms", medianOf(all), "ms", fmt.Sprintf("median of all %d runs", len(all)))
	r.note("peak_rss_mb", rss, "MiB", "")
	if first[0] != nil {
		r.note("precision_after", first[0].PrecisionAfter, "ratio", "corpus 0")
		r.note("rcorr", first[0].RCorr, "ratio", "corpus 0")
	}
	if e.trace {
		tp.fill(r.layers, rec, 1)
		r.layers["trace.overhead_ms"] = medianOf(traced) - medianOf(all)
		zeroServingLayers(r.layers)
		return writeTrace(e, rec)
	}
	return nil
}

// trickleSession is one trickle corpus with its live session.
type trickleSession struct {
	cfg   core.Config
	sess  *driftclean.Session
	sents []driftclean.Sentence
	// bulk is how many sentences set-up ingested; next is the first
	// sentence not yet ingested.
	bulk, next int
	// plain holds the wall time of each checkpoint, fingerprints the KB
	// each one produced.
	plain        []float64
	fingerprints []string
	last         *driftclean.Report
	// failed stops a session whose checkpoint failed.
	failed bool
}

// runTrickle times driftclean.Session checkpoints on trickleCorpora
// corpora. Set-up opens one session per corpus and bulk-ingests all but
// its tail. Then the tails go in 4-sentence batches in corpus order, one
// Ingest + Publish per session per round, every one timed, so that the
// checkpoints of one corpus are spread over the whole run. After the
// last round each session's KB is checked against a from-scratch
// session over the same sentences.
func runTrickle(e env, r *report) error {
	ctx := context.Background()
	budget := e.seconds
	if e.trace {
		budget /= 2
	}
	var setups []float64
	ss := make([]*trickleSession, trickleCorpora)
	for j := range ss {
		cfg := pipelineConfig(e.seed, j, trickleSentences)
		t0 := time.Now()
		sess, err := driftclean.Open(ctx, driftclean.WithConfig(cfg))
		if err != nil {
			return fmt.Errorf("trickle setup: %w", err)
		}
		sents := sess.Sentences()
		bulk := len(sents) - trickleTail*trickleBatch
		if _, err := sess.Ingest(ctx, sents[:bulk]); cleanErr(err) != nil {
			return fmt.Errorf("trickle setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		ss[j] = &trickleSession{cfg: cfg, sess: sess, sents: sents, bulk: bulk, next: bulk}
	}
	// The set-up's garbage is not the first checkpoint's to collect.
	runtime.GC()

	err := rounds(time.Now().Add(budget), minRounds(e), func(int) error {
		for j, s := range ss {
			if s.failed {
				continue
			}
			if s.next+trickleBatch > len(s.sents) {
				return fmt.Errorf("trickle corpus %d: tail of %d checkpoints used up", j, trickleTail)
			}
			t0 := time.Now()
			rep, err := s.sess.Ingest(ctx, s.sents[s.next:s.next+trickleBatch])
			if err = cleanErr(err); err == nil {
				_, err = s.sess.Publish()
			}
			s.plain = append(s.plain, ms(time.Since(t0)))
			if err != nil {
				r.fail("error")
				r.lines = append(r.lines, fmt.Sprintf("corpus %d checkpoint failed: %v", j, err))
				s.failed = true
				continue
			}
			r.ok()
			s.next += trickleBatch
			s.last = rep
			s.fingerprints = append(s.fingerprints, bench.Fingerprint(rep.System.KB))
		}
		return nil
	})
	if err != nil {
		return err
	}

	var fresh, plainAll, tracedAll []float64
	plain := make([][]float64, len(ss))
	rec := newRecorder()
	var tp tracedStats
	trace := int64(0)
	for j, s := range ss {
		_ = s.sess.Close() // Close only marks the session closed
		s.sess = nil
		if s.last == nil {
			return fmt.Errorf("no trickle checkpoint on corpus %d succeeded", j)
		}
		plain[j] = s.plain
		plainAll = append(plainAll, s.plain...)

		// Outside the timed region: the incremental KB must equal a
		// from-scratch session over the same sentences.
		got := reportOutcome(s.last)
		t0 := time.Now()
		want, err := scratchOutcome(ctx, s.cfg, s.sents[:s.next])
		if err != nil {
			return err
		}
		fresh = append(fresh, ms(time.Since(t0)))
		if !got.same(want) {
			r.markFailed("incremental != from-scratch")
			r.lines = append(r.lines, fmt.Sprintf("check FAILED: corpus %d: incremental %v, from scratch %v", j, got, want))
		} else {
			r.lines = append(r.lines, fmt.Sprintf("check corpus %d: incremental == from scratch over %d sentences: %v", j, s.next, got))
		}
		if !e.trace {
			continue
		}

		// Traced mirror of the same checkpoints; each KB must match the
		// plain session's. Set-up spans live in trace 0, beside the bulk
		// checkpoint.
		p := openTraced(s.cfg, rec, 0)
		if _, err := p.checkpoint(p.sys.Corpus.Sentences[:s.bulk], 0, nil); err != nil {
			return fmt.Errorf("traced bulk checkpoint: %w", err)
		}
		for i := range s.fingerprints {
			trace++
			from := s.bulk + i*trickleBatch
			t0 := time.Now()
			o, err := p.checkpoint(p.sys.Corpus.Sentences[from:from+trickleBatch], trace, &tp)
			if err == nil {
				p.publish(trace)
			}
			tracedAll = append(tracedAll, ms(time.Since(t0)))
			if err != nil {
				r.fail("error")
				r.lines = append(r.lines, "traced checkpoint failed: "+err.Error())
				break
			}
			r.ok()
			if o.Fingerprint != s.fingerprints[i] {
				r.markFailed("traced != untraced")
				r.lines = append(r.lines, fmt.Sprintf("check FAILED: corpus %d traced checkpoint %d fingerprint %s, untraced %s", j, i+1, o.Fingerprint, s.fingerprints[i]))
			}
		}
	}

	rss, err := peakRSSMiB(0)
	if err != nil {
		return err
	}
	corpus0 := ss[0].last
	setup, latency := medianOf(setups), fastestMean(plain)
	r.e2e["setup_s"] = setup
	r.e2e["peak_rss_mb"] = rss
	r.e2e["latency_ms"] = latency
	r.e2e["throughput_per_s"] = trickleBatch / (latency / 1000)
	r.note("setup_s", setup, "s", fmt.Sprintf("world + corpus + bulk checkpoint, median over %d corpora", trickleCorpora))
	r.note("checkpoint_ms", latency, "ms", fmt.Sprintf("mean over %d corpora of each one's fastest of %d checkpoints of %d sentences", trickleCorpora, len(plain[0]), trickleBatch))
	r.note("checkpoint_p50_ms", medianOf(plainAll), "ms", fmt.Sprintf("median of all %d checkpoints", len(plainAll)))
	r.noteTail("checkpoint_tail_ms", tail(sortedCopy(plainAll)), "ms")
	r.note("fresh_session_ms", medianOf(fresh), "ms", "Open + one Ingest of the same sentences, median over corpora")
	r.note("trickle_sentences_per_s", r.e2e["throughput_per_s"], "sentences/s", "at checkpoint_ms")
	r.note("peak_rss_mb", rss, "MiB", fmt.Sprintf("%d sessions alive", trickleCorpora))
	r.note("precision_after", corpus0.PrecisionAfter, "ratio", "corpus 0, final checkpoint")
	r.note("rcorr", corpus0.RCorr, "ratio", "corpus 0, final checkpoint")
	if !e.trace {
		return nil
	}
	tp.fill(r.layers, rec, 1)
	r.layers["world.new_ms"] = rec.medianLayerMs("world.new", 0)
	r.layers["corpus.generate_ms"] = rec.medianLayerMs("corpus.generate", 0)
	r.layers["trace.overhead_ms"] = medianOf(tracedAll) - medianOf(plainAll)
	zeroServingLayers(r.layers)
	return writeTrace(e, rec)
}

// scratchOutcome ingests sentences into a fresh session as one batch.
func scratchOutcome(ctx context.Context, cfg core.Config, sentences []driftclean.Sentence) (outcome, error) {
	sess, err := driftclean.Open(ctx, driftclean.WithConfig(cfg))
	if err != nil {
		return outcome{}, err
	}
	defer sess.Close()
	rep, err := sess.Ingest(ctx, sentences)
	if err = cleanErr(err); err != nil {
		return outcome{}, fmt.Errorf("from-scratch session: %w", err)
	}
	return reportOutcome(rep), nil
}

// tracedPipeline mirrors driftclean.Open, Session.Ingest and
// Session.Publish call for call, with a span around each call into a
// layer. Spans sit in the benchmark's files, so the program is run
// unchanged; the output checks compare its KBs with the plain run's.
type tracedPipeline struct {
	rec    *recorder
	sys    *core.System
	stream *extract.Stream
	walks  *rank.WalkMemo
}

// openTraced mirrors driftclean.Open: world, corpus and oracle, no KB.
// core.Prepare also propagates Parallelism and Fault into the stage
// configs; with the default config (both unset) that is a no-op. Open's
// OnRound hook only reports progress and cancellation, so it is left
// out.
func openTraced(cfg core.Config, rec *recorder, trace int64) *tracedPipeline {
	p := &tracedPipeline{rec: rec}
	s := rec.begin("world.new", 0, trace)
	w := world.New(cfg.World)
	s.end()
	s = rec.begin("corpus.generate", 0, trace)
	c := corpus.Generate(w, cfg.Corpus)
	s.end()
	p.sys = &core.System{Cfg: cfg, World: w, Corpus: c, Oracle: eval.NewOracle(w, c)}
	// Route the shared walk cache through a memo of our own: the same
	// type the system installs, but with its hit counter in reach.
	p.walks = rank.NewWalkMemo()
	p.sys.ScoreCache().SetWalk(p.walks.Walk)
	p.stream = extract.NewStream(cfg.Extract)
	return p
}

// opStats are one traced checkpoint's counts.
type opStats struct {
	replayed, batch                int
	analyzeCalls                   int
	taskHits, taskMisses, walkHits int
	// firstHits and firstMisses count the first analysis pass only:
	// there, a reused task can only come from an earlier checkpoint.
	firstHits, firstMisses  int
	rounds, dps, rolledBack int
	pairs, extractions      int
	allocMB, gcPauseMs      float64
	gcCycles                int
}

// tracedStats accumulates opStats over a run's traced checkpoints.
type tracedStats struct{ ops []opStats }

// checkpoint mirrors Session.Ingest: append, replay, evaluate before,
// detect-and-clean (core.System.CleanDPs), evaluate after.
func (p *tracedPipeline) checkpoint(batch []corpus.Sentence, trace int64, acc *tracedStats) (outcome, error) {
	rec, sys := p.rec, p.sys
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	taskHits0, taskMisses0 := sys.TaskCacheStats()
	walkHits0, _ := p.walks.Stats()

	root := rec.begin("checkpoint", 0, trace)
	s := rec.begin("extract.append", root.id(), trace)
	p.stream.Append(batch)
	s.end()
	s = rec.begin("extract.replay", root.id(), trace)
	res := p.stream.Replay()
	s.end()
	sys.Extraction, sys.KB = res, res.KB

	s = rec.begin("eval.report", root.id(), trace)
	sys.Oracle.KBPrecision(sys.KB, nil)
	s.end()

	cs := rec.begin("clean.run", root.id(), trace)
	before := map[string][]string{}
	for _, c := range sys.KB.Concepts() {
		before[c] = sys.KB.Instances(c)
	}
	analyzeCalls := 0
	var firstHits, firstMisses int
	var detectErr error
	cres := clean.Run(sys.KB, func(k *kb.KB) clean.Labels {
		analyzeCalls++
		s := rec.begin("core.analyze", cs.id(), trace)
		a, err := sys.Analyze(k)
		s.end()
		if analyzeCalls == 1 {
			firstHits, firstMisses = sys.TaskCacheStats()
		}
		if err != nil {
			detectErr = err
			return clean.Labels{}
		}
		s = rec.begin("core.detect", cs.id(), trace)
		labels, err := sys.Detect(a, core.DetectMultiTask)
		s.end()
		if err != nil {
			detectErr = err
			return clean.Labels{}
		}
		return onlyDPs(labels)
	}, p.cleanConfig())
	cs.end()
	if detectErr != nil {
		root.end()
		return outcome{}, detectErr
	}

	s = rec.begin("eval.report", root.id(), trace)
	o := evaluate(sys, before)
	s.end()
	root.end()

	if acc != nil {
		runtime.ReadMemStats(&ms1)
		taskHits1, taskMisses1 := sys.TaskCacheStats()
		walkHits1, _ := p.walks.Stats()
		st := opStats{
			replayed:     p.stream.Sentences(),
			batch:        len(batch),
			analyzeCalls: analyzeCalls,
			taskHits:     taskHits1 - taskHits0,
			taskMisses:   taskMisses1 - taskMisses0,
			firstHits:    firstHits - taskHits0,
			firstMisses:  firstMisses - taskMisses0,
			walkHits:     walkHits1 - walkHits0,
			rounds:       len(cres.Rounds),
			rolledBack:   cres.TotalPairsRemoved,
			pairs:        sys.KB.NumPairs(),
			extractions:  sys.KB.NumExtractions(),
			allocMB:      float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
			gcCycles:     int(ms1.NumGC - ms0.NumGC),
			gcPauseMs:    float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		}
		for _, rr := range cres.Rounds {
			st.dps += rr.AccidentalDPs + rr.IntentionalDPs
		}
		acc.ops = append(acc.ops, st)
	}
	return o, nil
}

// publish mirrors Session.Publish.
func (p *tracedPipeline) publish(trace int64) {
	s := p.rec.begin("snapshot.freeze", 0, trace)
	snapshot.Freeze(p.sys.KB)
	s.end()
}

// cleanConfig mirrors core.System's cleaning config: the shared score
// cache rides along when its walk configuration matches.
func (p *tracedPipeline) cleanConfig() clean.Config {
	cfg := p.sys.Cfg.Clean
	if cfg.Walk == p.sys.ScoreCache().Config() {
		cfg.Cache = p.sys.ScoreCache()
	}
	return cfg
}

// onlyDPs keeps the drifting-point labels, as core.System.CleanDPs does.
func onlyDPs(labels clean.Labels) clean.Labels {
	out := clean.Labels{}
	for c, m := range labels {
		for e, l := range m {
			if !l.IsDP() {
				continue
			}
			if out[c] == nil {
				out[c] = map[string]dp.Label{}
			}
			out[c][e] = l
		}
	}
	return out
}

// evaluate mirrors the Session's after-cleaning report: precision over
// the KB and the paper's cleaning metrics merged in concept order.
func evaluate(sys *core.System, before map[string][]string) outcome {
	concepts := make([]string, 0, len(before))
	for c := range before {
		concepts = append(concepts, c)
	}
	sort.Strings(concepts)
	per := make([]eval.CleaningMetrics, 0, len(concepts))
	for _, c := range concepts {
		per = append(per, sys.Oracle.Cleaning(c, before[c], sys.KB))
	}
	m := eval.MergeCleaning(per)
	return outcome{bench.Fingerprint(sys.KB), sys.Oracle.KBPrecision(sys.KB, nil), m.RCorr}
}

// fill writes the pipeline layer metrics: span self times as medians
// over traces fromTrace and up, counts as medians over checkpoints.
func (t *tracedStats) fill(layers map[string]float64, rec *recorder, fromTrace int64) {
	for _, name := range []string{"world.new", "corpus.generate", "extract.append", "extract.replay",
		"core.analyze", "core.detect", "eval.report", "snapshot.freeze"} {
		layers[name+"_ms"] = rec.medianLayerMs(name, fromTrace)
	}
	layers["clean.self_ms"] = rec.medianLayerMs("clean.run", fromTrace)
	med := func(f func(opStats) float64) float64 {
		var xs []float64
		for _, o := range t.ops {
			xs = append(xs, f(o))
		}
		return medianOf(xs)
	}
	layers["extract.replayed_sentences"] = med(func(o opStats) float64 { return float64(o.replayed) })
	layers["extract.batch_share"] = med(func(o opStats) float64 { return float64(o.batch) / float64(o.replayed) })
	layers["core.analyze_calls"] = med(func(o opStats) float64 { return float64(o.analyzeCalls) })
	layers["core.task_rebuilds"] = med(func(o opStats) float64 { return float64(o.taskMisses) })
	layers["core.task_reuse_ratio"] = med(func(o opStats) float64 { return share(o.firstHits, o.firstMisses) })
	layers["core.round_task_reuse_ratio"] = med(func(o opStats) float64 { return share(o.taskHits, o.taskMisses) })
	layers["rank.walk_reuse"] = med(func(o opStats) float64 { return float64(o.walkHits) })
	layers["clean.rounds"] = med(func(o opStats) float64 { return float64(o.rounds) })
	layers["clean.dps"] = med(func(o opStats) float64 { return float64(o.dps) })
	layers["clean.rolled_back_pairs"] = med(func(o opStats) float64 { return float64(o.rolledBack) })
	layers["kb.pairs"] = med(func(o opStats) float64 { return float64(o.pairs) })
	layers["kb.extractions"] = med(func(o opStats) float64 { return float64(o.extractions) })
	layers["runtime.alloc_mb"] = med(func(o opStats) float64 { return o.allocMB })
	layers["runtime.gc_cycles"] = med(func(o opStats) float64 { return float64(o.gcCycles) })
	layers["runtime.gc_pause_ms"] = med(func(o opStats) float64 { return o.gcPauseMs })
}

// share is hits over hits plus misses, 0 when both are 0.
func share(hits, misses int) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// writeTrace stores the run's spans under .bench_build/traces.
func writeTrace(e env, rec *recorder) error {
	return rec.write(fmt.Sprintf("%s/.bench_build/traces/%s-seed%d.jsonl", e.root, e.workload, e.seed))
}
