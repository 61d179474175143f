package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"driftclean"
)

// pinsJSON pins the batch workload's output per seed and corpus: the
// final KB's fingerprint and the report's precision and rcorr, floats
// written in their exact shortest form. Regenerate with -write-pins.
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	Sentences int                  `json:"batch_sentences"`
	Corpora   int                  `json:"corpora_per_seed"`
	Pins      map[string][]pinJSON `json:"pins"`
}

type pinJSON struct {
	Fingerprint    string `json:"fingerprint"`
	PrecisionAfter string `json:"precision_after"`
	RCorr          string `json:"rcorr"`
}

// batchPins decodes the embedded pins, one outcome per corpus of each
// pinned seed. A malformed file is a build defect, so it panics.
func batchPins() map[int64][]outcome {
	var f pinFile
	if err := json.Unmarshal(pinsJSON, &f); err != nil {
		panic(fmt.Sprintf("perfbench: pins.json: %v", err))
	}
	if f.Sentences != batchSentences || f.Corpora != batchCorpora {
		panic(fmt.Sprintf("perfbench: pins.json pins %d corpora of %d sentences, the batch workload runs %d of %d",
			f.Corpora, f.Sentences, batchCorpora, batchSentences))
	}
	out := make(map[int64][]outcome, len(f.Pins))
	for k, ps := range f.Pins {
		seed, err := strconv.ParseInt(k, 10, 64)
		if err != nil || len(ps) != batchCorpora {
			panic(fmt.Sprintf("perfbench: pins.json: bad pins for seed %q", k))
		}
		list := make([]outcome, len(ps))
		for j, p := range ps {
			prec, err1 := strconv.ParseFloat(p.PrecisionAfter, 64)
			rcorr, err2 := strconv.ParseFloat(p.RCorr, 64)
			if err1 != nil || err2 != nil {
				panic(fmt.Sprintf("perfbench: pins.json: bad pin for seed %q", k))
			}
			list[j] = outcome{p.Fingerprint, prec, rcorr}
		}
		out[seed] = list
	}
	return out
}

// runWritePins runs the batch workload once per corpus of each seed in
// LO-HI and writes perfbench/pins.json under root.
func runWritePins(root, span string) error {
	lo, hi, ok := strings.Cut(span, "-")
	from, err1 := strconv.ParseInt(lo, 10, 64)
	to, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || from > to {
		return fmt.Errorf("-write-pins wants LO-HI, got %q", span)
	}
	f := pinFile{Sentences: batchSentences, Corpora: batchCorpora, Pins: map[string][]pinJSON{}}
	for seed := from; seed <= to; seed++ {
		key := strconv.FormatInt(seed, 10)
		for j := 0; j < batchCorpora; j++ {
			rep, err := driftclean.CleanContext(context.Background(), driftclean.WithConfig(pipelineConfig(seed, j, batchSentences)))
			if err = cleanErr(err); err != nil {
				return fmt.Errorf("seed %d corpus %d: %w", seed, j, err)
			}
			o := reportOutcome(rep)
			f.Pins[key] = append(f.Pins[key], pinJSON{o.Fingerprint, fmtFloat(o.PrecisionAfter), fmtFloat(o.RCorr)})
			fmt.Fprintf(os.Stderr, "seed %d corpus %d: %v\n", seed, j, o)
		}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "pins.json"), append(b, '\n'), 0o644)
}
