package driftclean

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.World.NumDomains = 3
	cfg.World.InstancesPerConceptMin = 50
	cfg.World.InstancesPerConceptMax = 100
	cfg.Corpus.NumSentences = 15000
	cfg.Clean.MaxRounds = 2
	return cfg
}

func TestCleanEndToEnd(t *testing.T) {
	rep, err := CleanContext(context.Background(), WithConfig(smallConfig()))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("precision %.3f -> %.3f, pairs %d -> %d, rounds %d",
		rep.PrecisionBefore, rep.PrecisionAfter, rep.PairsBefore, rep.PairsAfter, rep.Rounds)
	if rep.PrecisionAfter <= rep.PrecisionBefore {
		t.Errorf("cleaning did not improve precision: %.3f -> %.3f",
			rep.PrecisionBefore, rep.PrecisionAfter)
	}
	if rep.PairsAfter >= rep.PairsBefore {
		t.Error("cleaning removed no pairs")
	}
	if rep.System == nil {
		t.Error("report must retain the system")
	}
	if rep.RCorr <= 0 || rep.PError <= 0 {
		t.Errorf("metrics not populated: %+v", rep)
	}
}

func TestCleanWithAdHoc(t *testing.T) {
	rep, err := CleanWithContext(context.Background(), DetectAdHoc2, WithConfig(smallConfig()))
	if err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatal(err)
	}
	if rep.PrecisionAfter < rep.PrecisionBefore-0.01 {
		t.Errorf("ad-hoc cleaning degraded precision: %.3f -> %.3f",
			rep.PrecisionBefore, rep.PrecisionAfter)
	}
}

func TestBuildExposesSystem(t *testing.T) {
	sys := Build(smallConfig())
	if sys.KB.NumPairs() == 0 || sys.World == nil || sys.Corpus.Len() == 0 {
		t.Fatal("Build returned an incomplete system")
	}
}

func TestRunExperimentByID(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.Core = smallConfig()
	opts.EvalConcepts = 8
	tab, err := RunExperiment("fig5a", opts)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "fig5a" || len(tab.Rows) == 0 {
		t.Fatalf("experiment table = %+v", tab)
	}
	if !strings.Contains(tab.Render(), "iteration") {
		t.Error("render missing header")
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"table1", "table2", "table3", "table4", "table5",
		"fig2", "fig3", "fig4", "fig5a", "fig5b", "fig5c"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("IDs[%d] = %q, want %q", i, ids[i], want[i])
		}
	}
}
