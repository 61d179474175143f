package driftclean

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// noDriftConfig runs extraction for a single iteration: no triggers, no
// drift, and therefore nothing for the detector to find.
func noDriftConfig() Config {
	cfg := smallConfig()
	cfg.Extract.MaxIterations = 1
	return cfg
}

func TestCleanContextProgressAndReport(t *testing.T) {
	type event struct {
		phase Phase
		round Round
	}
	var mu sync.Mutex
	var events []event
	rep, err := CleanContext(context.Background(),
		WithConfig(smallConfig()),
		WithProgress(func(p Phase, r Round) {
			mu.Lock()
			events = append(events, event{p, r})
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrecisionAfter <= rep.PrecisionBefore {
		t.Errorf("cleaning did not improve precision: %.3f -> %.3f",
			rep.PrecisionBefore, rep.PrecisionAfter)
	}
	if len(events) < 3 {
		t.Fatalf("events = %v", events)
	}
	if events[0] != (event{PhaseBuild, 0}) {
		t.Errorf("first event = %v, want build", events[0])
	}
	if last := events[len(events)-1]; last != (event{PhaseEvaluate, 0}) {
		t.Errorf("last event = %v, want evaluate", last)
	}
	cleanRounds := 0
	for _, e := range events[1 : len(events)-1] {
		cleanRounds++
		if e.phase != PhaseClean || e.round != cleanRounds {
			t.Errorf("middle event %d = {%v %d}, want {clean %d}", cleanRounds, e.phase, e.round, cleanRounds)
		}
	}
	// Every executed round — including the terminating zero-DP one — is
	// both announced through OnRound and recorded in the report.
	if cleanRounds != rep.Rounds {
		t.Errorf("saw %d clean-round events for %d reported rounds", cleanRounds, rep.Rounds)
	}
}

func TestCleanContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := CleanContext(ctx, WithConfig(smallConfig()))
	if rep != nil {
		t.Error("canceled run returned a report")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v does not wrap context.Canceled", err)
	}
}

func TestCleanContextCancelMidRun(t *testing.T) {
	cfg := smallConfig()
	cfg.Clean.MaxRounds = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := CleanWithContext(ctx, DetectMultiTask,
		WithConfig(cfg),
		WithProgress(func(p Phase, r Round) {
			if p == PhaseClean && r == 1 {
				cancel() // observed before round 2 starts
			}
		}))
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestCleanContextNoDPsDetected(t *testing.T) {
	rep, err := CleanContext(context.Background(), WithConfig(noDriftConfig()))
	if !errors.Is(err, ErrNoDPsDetected) {
		t.Fatalf("err = %v, want ErrNoDPsDetected", err)
	}
	// A DP-free run still executes (and records) the one detection round
	// that discovered there was nothing to clean, and that round is the
	// convergence fixpoint.
	if rep == nil || rep.Rounds != 1 || !rep.Converged {
		t.Fatalf("report alongside ErrNoDPsDetected = %+v", rep)
	}
	if rep.PairsAfter != rep.PairsBefore {
		t.Errorf("DP-free run changed the KB: %d -> %d pairs", rep.PairsBefore, rep.PairsAfter)
	}
}

func TestCleanContextWithMethod(t *testing.T) {
	rep, err := CleanContext(context.Background(),
		WithConfig(smallConfig()), WithMethod(DetectAdHoc2))
	if err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatal(err)
	}
	if rep == nil || rep.System == nil {
		t.Fatal("no report")
	}
	if rep.PrecisionAfter < rep.PrecisionBefore-0.01 {
		t.Errorf("ad-hoc cleaning degraded precision: %.3f -> %.3f",
			rep.PrecisionBefore, rep.PrecisionAfter)
	}
}

func TestReportSnapshot(t *testing.T) {
	rep, err := CleanContext(context.Background(), WithConfig(smallConfig()))
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Snapshot()
	if snap.Generation() == 0 {
		t.Error("snapshot has zero generation")
	}
	if snap.Stats().DistinctPairs != rep.PairsAfter {
		t.Errorf("snapshot pairs = %d, report says %d", snap.Stats().DistinctPairs, rep.PairsAfter)
	}
	// The snapshot is isolated from later pipeline mutation.
	before := snap.Stats()
	rep.System.KB.RemovePairs(rep.System.KB.Pairs()[:1])
	if snap.Stats() != before {
		t.Error("mutating the report's KB changed the frozen snapshot")
	}
	if rep.System.KB.NumPairs() >= before.DistinctPairs {
		t.Error("mutation did not apply to the live KB")
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{PhaseBuild: "build", PhaseClean: "clean", PhaseEvaluate: "evaluate", Phase(9): "Phase(9)"} {
		if p.String() != want {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
}
