package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail value.
// A tail read from fewer samples is one outlier wide, so the benchmark
// reports the highest percentile that still has this many beyond it.
const minBeyond = 10

// tailStat is a tail latency with the percentile it sits at and the
// sample count it was read from.
type tailStat struct {
	Value      float64
	Percentile float64
	Samples    int
	OK         bool
}

// tail returns the highest-ranked sample with at least minBeyond samples
// above it. sorted must be ascending. With minBeyond or fewer samples no
// such value exists and OK is false.
func tail(sorted []float64) tailStat {
	n := len(sorted)
	if n <= minBeyond {
		return tailStat{Samples: n}
	}
	i := n - 1 - minBeyond
	return tailStat{
		Value:      sorted[i],
		Percentile: 100 * float64(i+1) / float64(n),
		Samples:    n,
		OK:         true,
	}
}

// median of an ascending slice; 0 for an empty one.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// medianOf is median over an unsorted slice.
func medianOf(xs []float64) float64 { return median(sortedCopy(xs)) }

// fastestMean is the mean over groups of each group's fastest sample;
// empty groups are skipped, and with none left it is 0. The runs of one
// group repeat the same input, spread over the whole run: a shared host
// only ever slows a run down, so a group's fastest run is its least
// disturbed cost. The mean weighs every input the same.
func fastestMean(groups [][]float64) float64 {
	sum, n := 0.0, 0
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		best := g[0]
		for _, x := range g[1:] {
			best = min(best, x)
		}
		sum += best
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// rounds calls round with 0, 1, 2, ... at least minRounds times, and
// then again while one more round as long as the last one would end by
// the deadline. It stops at the first error.
func rounds(deadline time.Time, minRounds int, round func(i int) error) error {
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := round(i); err != nil {
			return err
		}
		if i+1 >= minRounds && time.Now().Add(time.Since(t0)).After(deadline) {
			return nil
		}
	}
}

// interval is a half-open time range [Start, End).
type interval struct{ Start, End time.Duration }

// selfTime is the length of span minus the part of it that the union of
// children covers. Children may overlap each other (parallel work) and
// may stick out of the span; only the covered part inside it counts.
func selfTime(span interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < span.Start {
			c.Start = span.Start
		}
		if c.End > span.End {
			c.End = span.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return span.End - span.Start - covered
}

// tally counts operations attempted and failed. An operation fails when
// it returns an error, answers with a status other than 200 (a shed
// answers 429, a server-side timeout 503), or its output fails a check.
type tally struct {
	Attempted int
	Failed    int
	// Causes counts failures by kind, for the report.
	Causes map[string]int
}

func (t *tally) ok() { t.Attempted++ }

// fail records one attempted operation that failed for the given cause.
func (t *tally) fail(cause string) {
	t.Attempted++
	t.markFailed(cause)
}

// markFailed turns an operation already counted as attempted into a
// failure, for output checks made after the operation returned.
func (t *tally) markFailed(cause string) {
	t.Failed++
	if t.Causes == nil {
		t.Causes = map[string]int{}
	}
	t.Causes[cause]++
}

// status records one HTTP exchange by its outcome.
func (t *tally) status(code int, err error) {
	switch {
	case err != nil:
		t.fail("error")
	case code == 429:
		t.fail("shed")
	case code != 200:
		t.fail("status")
	default:
		t.ok()
	}
}

// ratio is failed over attempted, 0 when nothing was attempted.
func (t *tally) ratio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}
