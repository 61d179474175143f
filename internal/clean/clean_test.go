package clean

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"driftclean/internal/dp"
	"driftclean/internal/kb"
	"driftclean/internal/rank"
)

// paperExampleKB reproduces the worked example of Sec 4.1: the sentence
// "food from animals such as pork, beef and chicken" was resolved to
// "animal" because (chicken isA animal) was known. Pork and beef are
// strongly established under food; the Eq 21 check must prefer "food" and
// the extraction must roll back.
func paperExampleKB() *kb.KB {
	k := kb.New()
	for i := 0; i < 8; i++ {
		k.AddExtraction(i, "food", nil, []string{"pork", "beef", "chicken"}, nil, 1)
		k.AddExtraction(100+i, "animal", nil, []string{"chicken", "dog", "cat"}, nil, 1)
	}
	// The drifted extraction.
	k.AddExtraction(200, "animal", []string{"food", "animal"},
		[]string{"pork", "beef", "chicken"}, []string{"chicken"}, 2)
	return k
}

func scoresFunc(k *kb.KB) func(string) rank.Scores {
	cache := map[string]rank.Scores{}
	return func(c string) rank.Scores {
		if s, ok := cache[c]; ok {
			return s
		}
		s := rank.RandomWalk(rank.BuildGraph(k, c), rank.DefaultConfig())
		cache[c] = s
		return s
	}
}

func driftedExtractionID(k *kb.KB) int {
	for id := 0; id < k.NumExtractions(); id++ {
		if ex := k.Extraction(id); ex.SentenceID == 200 {
			return id
		}
	}
	return -1
}

func TestEq21FlagsDriftedExtraction(t *testing.T) {
	k := paperExampleKB()
	ex := k.Extraction(driftedExtractionID(k))
	if ExtractionPassesCheck(k, ex, scoresFunc(k)) {
		t.Error("the paper's S3 extraction must fail the Eq 21 check")
	}
}

func TestEq21AcceptsCleanExtraction(t *testing.T) {
	k := paperExampleKB()
	// A genuinely animal-side ambiguous extraction: dog and cat are
	// strong under animal, absent under food.
	id := k.AddExtraction(300, "animal", []string{"animal", "food"},
		[]string{"dog", "cat"}, []string{"dog"}, 2)
	if !ExtractionPassesCheck(k, k.Extraction(id), scoresFunc(k)) {
		t.Error("a correctly resolved extraction must pass the Eq 21 check")
	}
}

func TestEq21SingleCandidateAlwaysPasses(t *testing.T) {
	k := paperExampleKB()
	id := k.AddExtraction(301, "animal", []string{"animal"}, []string{"dog"}, []string{"chicken"}, 2)
	if !ExtractionPassesCheck(k, k.Extraction(id), scoresFunc(k)) {
		t.Error("single-candidate extractions have nothing to re-decide")
	}
}

func TestSentenceScoreMatchesWorkedExample(t *testing.T) {
	// Fixed scores mirroring Example 1 of the paper.
	fixed := map[string]rank.Scores{
		"food":   {"pork": 0.15, "beef": 0.10, "chicken": 0.35},
		"animal": {"pork": 0.001, "beef": 0.002, "chicken": 0.25},
	}
	scoresOf := func(c string) rank.Scores { return fixed[c] }
	cands := []string{"food", "animal"}
	insts := []string{"pork", "beef", "chicken"}
	sAnimal := SentenceScore(insts, "animal", cands, scoresOf)
	sFood := SentenceScore(insts, "food", cands, scoresOf)
	if sAnimal >= sFood {
		t.Errorf("Score(s,animal)=%v must be below Score(s,food)=%v", sAnimal, sFood)
	}
	// The paper computes Score(s, animal) = 0.441.
	if sAnimal < 0.43 || sAnimal > 0.46 {
		t.Errorf("Score(s,animal) = %v, want ~0.441", sAnimal)
	}
}

func TestCleanRoundIntentional(t *testing.T) {
	k := paperExampleKB()
	labels := Labels{"animal": {"chicken": dp.Intentional}}
	rr := CleanRound(k, labels, DefaultConfig())
	if rr.IntentionalDPs != 1 || rr.ExtractionsChecked == 0 {
		t.Fatalf("round = %+v", rr)
	}
	if k.Has("animal", "pork") || k.Has("animal", "beef") {
		t.Error("drifted pork/beef must be rolled back")
	}
	if !k.Has("animal", "chicken") {
		t.Error("the Intentional DP itself must be kept (it is a correct instance)")
	}
	if !k.Has("food", "pork") {
		t.Error("food-side pairs must be untouched")
	}
}

func TestCleanRoundAccidental(t *testing.T) {
	k := kb.New()
	k.AddExtraction(1, "country", nil, []string{"france", "new_york"}, nil, 1)
	k.AddExtraction(2, "country", nil, []string{"boston"}, []string{"new_york"}, 2)
	labels := Labels{"country": {"new_york": dp.Accidental}}
	rr := CleanRound(k, labels, DefaultConfig())
	if rr.AccidentalDPs != 1 {
		t.Fatalf("round = %+v", rr)
	}
	if k.Has("country", "new_york") {
		t.Error("accidental DP must be dropped")
	}
	if k.Has("country", "boston") {
		t.Error("extractions triggered by the accidental DP must cascade away")
	}
	if !k.Has("country", "france") {
		t.Error("unrelated pairs must survive")
	}
}

func TestDropAllIntentionalAblation(t *testing.T) {
	k := paperExampleKB()
	// Add a *correct* chicken-triggered extraction that Eq 21 would keep.
	k.AddExtraction(400, "animal", []string{"animal", "food"},
		[]string{"dog", "chicken"}, []string{"chicken"}, 2)
	cfg := DefaultConfig()
	cfg.DropAllIntentional = true
	labels := Labels{"animal": {"chicken": dp.Intentional}}
	rr := CleanRound(k, labels, cfg)
	if rr.ExtractionsFlagged != rr.ExtractionsChecked {
		t.Errorf("drop-all must flag everything: %+v", rr)
	}
}

func TestRunStopsWhenNoDPs(t *testing.T) {
	k := paperExampleKB()
	calls := 0
	res := Run(k, func(*kb.KB) Labels {
		calls++
		return Labels{}
	}, DefaultConfig())
	if calls != 1 || len(res.Rounds) != 1 {
		t.Errorf("calls=%d rounds=%d, want one recorded no-op detection", calls, len(res.Rounds))
	}
	if !res.Converged {
		t.Error("a zero-DP round is the fixpoint; Converged must be true")
	}
	if rr := res.Rounds[0]; rr.AccidentalDPs != 0 || rr.IntentionalDPs != 0 {
		t.Errorf("terminating round must record zero DPs, got %+v", rr)
	}
}

func TestRunIterates(t *testing.T) {
	k := paperExampleKB()
	round := 0
	res := Run(k, func(cur *kb.KB) Labels {
		round++
		if round == 1 {
			return Labels{"animal": {"chicken": dp.Intentional}}
		}
		return Labels{}
	}, DefaultConfig())
	// The working round plus the terminating zero-DP round: dropping the
	// latter (the old off-by-one) made convergence indistinguishable from
	// MaxRounds exhaustion.
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2 (working round + terminating zero-DP round)", len(res.Rounds))
	}
	if !res.Converged {
		t.Error("run ended on a zero-DP round; Converged must be true")
	}
	if last := res.Rounds[1]; last.AccidentalDPs != 0 || last.IntentionalDPs != 0 {
		t.Errorf("terminating round must record zero DPs, got %+v", last)
	}
	if res.TotalPairsRemoved == 0 {
		t.Error("first round should have removed the drifted pairs")
	}
	if k.Has("animal", "pork") {
		t.Error("pork must be gone after the run")
	}
}

func TestRunRespectsMaxRounds(t *testing.T) {
	k := paperExampleKB()
	cfg := DefaultConfig()
	cfg.MaxRounds = 2
	calls := 0
	res := Run(k, func(*kb.KB) Labels {
		calls++
		// Always report a (harmless, already-removed) DP to force looping.
		return Labels{"animal": {"ghost": dp.Accidental}}
	}, cfg)
	if calls > 2 {
		t.Errorf("detect called %d times with MaxRounds=2", calls)
	}
	if res.Converged {
		t.Error("a run that never saw a zero-DP round must not report convergence")
	}
}

// TestRunKeepsCustomWalkConfig is the regression test for the config
// clobber: Run used to replace the caller's whole Walk config with
// rank.DefaultConfig() whenever Walk.MaxIter was zero, silently
// discarding a customized restart probability or tolerance.
func TestRunKeepsCustomWalkConfig(t *testing.T) {
	cfg := Config{Walk: rank.Config{Restart: 0.31, MaxIter: 0}}
	got := cfg.withDefaults()
	if got.Walk.Restart != 0.31 {
		t.Errorf("Walk.Restart = %v, want the caller's 0.31 preserved", got.Walk.Restart)
	}
	def := rank.DefaultConfig()
	if got.Walk.MaxIter != def.MaxIter || got.Walk.Tol != def.Tol {
		t.Errorf("zero-valued Walk fields must take defaults individually: %+v", got.Walk)
	}
	if got.MaxRounds != DefaultConfig().MaxRounds {
		t.Errorf("MaxRounds = %d, want default", got.MaxRounds)
	}
}

func TestDisableCascadeAblation(t *testing.T) {
	build := func() *kb.KB {
		k := kb.New()
		k.AddExtraction(1, "country", nil, []string{"france", "new_york"}, nil, 1)
		k.AddExtraction(2, "country", nil, []string{"boston"}, []string{"new_york"}, 2)
		return k
	}
	labels := Labels{"country": {"new_york": dp.Accidental}}

	cascaded := build()
	CleanRound(cascaded, labels, DefaultConfig())
	if cascaded.Has("country", "boston") {
		t.Error("cascade should remove boston")
	}

	oneShot := build()
	cfg := DefaultConfig()
	cfg.DisableCascade = true
	CleanRound(oneShot, labels, cfg)
	if oneShot.Has("country", "new_york") {
		t.Error("one-shot removal should still drop the DP itself")
	}
	if !oneShot.Has("country", "boston") {
		t.Error("one-shot removal must leave triggered pairs in place (that is the ablation)")
	}
}

// twoPhaseKB is paperExampleKB plus an Accidental DP whose removal
// cascades, so one round exercises both the Eq 21 check and the cascade.
func twoPhaseKB() *kb.KB {
	k := paperExampleKB()
	k.AddExtraction(400, "country", nil, []string{"france", "new_york"}, nil, 1)
	k.AddExtraction(401, "country", nil, []string{"boston"}, []string{"new_york"}, 2)
	return k
}

// TestCleanRoundParallelMatchesSerial pins the prewarm guarantee — the
// concurrent score precomputation must not change any flagging decision
// — on every scoring path: CleanRound scores Eq 21 through the shared
// cache when its walk configuration matches cfg.Walk, and through a
// cache of its own for the round otherwise. Every cache setup, serial or
// parallel, must clean the KB identically.
func TestCleanRoundParallelMatchesSerial(t *testing.T) {
	labels := Labels{
		"animal":  {"chicken": dp.Intentional},
		"country": {"new_york": dp.Accidental},
	}
	defaultWalk := DefaultConfig().Walk
	otherWalk := defaultWalk
	otherWalk.Restart = 0.5
	setups := []struct {
		name string
		walk *rank.Config // shared cache's walk config; nil means no cache
		// shared reports whether the round must score through the
		// shared cache.
		shared bool
	}{
		{"shared-cache", &defaultWalk, true},
		{"mismatched-cache", &otherWalk, false},
		{"no-cache", nil, false},
	}
	type outcome struct {
		rr     RoundResult
		pairs  []kb.Pair
		active []bool
	}
	var ref *outcome
	for _, setup := range setups {
		for _, parallelism := range []int{1, 4} {
			k := twoPhaseKB()
			cfg := DefaultConfig()
			cfg.Parallelism = parallelism
			var walks atomic.Int64
			if setup.walk != nil {
				cfg.Cache = rank.NewCache(*setup.walk)
				cfg.Cache.SetWalk(func(g *rank.Graph, c rank.Config) rank.Scores {
					walks.Add(1)
					return rank.RandomWalk(g, c)
				})
			}
			got := &outcome{rr: CleanRound(k, labels, cfg), pairs: k.Pairs()}
			for id := 0; id < k.NumExtractions(); id++ {
				got.active = append(got.active, k.Extraction(id).Active)
			}
			name := fmt.Sprintf("%s/p%d", setup.name, parallelism)
			if setup.shared != (walks.Load() > 0) {
				t.Errorf("%s: shared cache ran %d walks; round should score through it: %v",
					name, walks.Load(), setup.shared)
			}
			if ref == nil {
				ref = got
				if k.Has("animal", "pork") || k.Has("country", "boston") {
					t.Fatalf("%s: round left drifted pairs in place: %+v", name, got.rr)
				}
				continue
			}
			if got.rr != ref.rr {
				t.Errorf("%s: round %+v, want %+v", name, got.rr, ref.rr)
			}
			if !reflect.DeepEqual(got.pairs, ref.pairs) {
				t.Errorf("%s: KB pairs %v, want %v", name, got.pairs, ref.pairs)
			}
			if !reflect.DeepEqual(got.active, ref.active) {
				t.Errorf("%s: extraction states %v, want %v", name, got.active, ref.active)
			}
		}
	}
}
