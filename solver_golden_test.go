package driftclean

import (
	"context"
	"testing"

	"driftclean/internal/bench"
)

// Pinned smoke-scale KB fingerprint of the default pipeline, so
// unintended numeric drift in the top-k eigensolver shows up as a
// failure here, not downstream.
const (
	smokeFingerprintTopK = "31af70aec53caf8f"
	smokeSentences       = 6000
)

// TestTopKDefaultFingerprintPinned: the default (top-k) path's smoke
// fingerprint is pinned so solver changes are reviewed deliberately,
// mirroring the driftbench -check gate inside go test.
func TestTopKDefaultFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale pipeline run")
	}
	cfg := DefaultConfig()
	cfg.Corpus.NumSentences = smokeSentences
	cfg.Clean.MaxRounds = 1
	rep, err := CleanContext(context.Background(), WithConfig(cfg))
	if err != nil {
		t.Fatalf("smoke pipeline failed: %v", err)
	}
	if got := bench.Fingerprint(rep.System.KB); got != smokeFingerprintTopK {
		t.Fatalf("top-k smoke fingerprint %s != pinned %s", got, smokeFingerprintTopK)
	}
}
