package main

import (
	"errors"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n       int
		ok      bool
		value   float64
		percent float64
	}{
		{n: 0},
		{n: 10}, // ten samples: none has ten beyond it
		{n: 11, ok: true, value: 1, percent: 100.0 / 11},
		{n: 20, ok: true, value: 10, percent: 50},
		{n: 1000, ok: true, value: 990, percent: 99},
		{n: 10000, ok: true, value: 9990, percent: 99.9},
	} {
		got := tail(seq(tc.n))
		if got.OK != tc.ok || got.Samples != tc.n {
			t.Fatalf("n=%d: tail = %+v, want ok=%v", tc.n, got, tc.ok)
		}
		if !tc.ok {
			continue
		}
		if !near(got.Value, tc.value) || !near(got.Percentile, tc.percent) {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, got.Value, got.Percentile, tc.value, tc.percent)
		}
		beyond := 0
		for _, v := range seq(tc.n) {
			if v > got.Value {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, minBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median(nil); !near(m, 0) {
		t.Errorf("median(nil) = %v", m)
	}
	if m := medianOf([]float64{5, 1, 3}); !near(m, 3) {
		t.Errorf("odd median = %v, want 3", m)
	}
	if m := medianOf([]float64{4, 1, 3, 2}); !near(m, 2.5) {
		t.Errorf("even median = %v, want 2.5", m)
	}
}

func TestFastestMeanTakesEachGroupsFastest(t *testing.T) {
	cases := []struct {
		groups [][]float64
		want   float64
	}{
		{nil, 0},
		{[][]float64{{}}, 0},
		{[][]float64{{5}}, 5},
		{[][]float64{{7, 3, 9}, {10, 12}}, 6.5},
		{[][]float64{{4, 4}, {}, {8}}, 6},
	}
	for _, c := range cases {
		if got := fastestMean(c.groups); got != c.want {
			t.Errorf("fastestMean(%v) = %v, want %v", c.groups, got, c.want)
		}
	}
}

func TestRoundsStopsBeforeOverrunningTheDeadline(t *testing.T) {
	// Rounds of 10 ms against a 35 ms deadline: the fourth would end
	// after it. A late wake-up may cost the third.
	var n int
	err := rounds(time.Now().Add(35*time.Millisecond), 1, func(int) error {
		n++
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if err != nil || n < 2 || n > 3 {
		t.Errorf("got %d rounds (err %v), want 3 (2 on a slow wake-up)", n, err)
	}
	// minRounds holds even when the deadline has passed.
	n = 0
	if err := rounds(time.Now(), 2, func(int) error { n++; return nil }); err != nil || n != 2 {
		t.Errorf("past deadline: got %d rounds (err %v), want 2", n, err)
	}
	// An error ends the rounds and is returned.
	boom := errors.New("boom")
	n = 0
	if err := rounds(time.Now().Add(time.Hour), 5, func(i int) error {
		n++
		if i == 1 {
			return boom
		}
		return nil
	}); err != boom || n != 2 {
		t.Errorf("error: got %d rounds, err %v; want 2, boom", n, err)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping counted once", []interval{iv(10, 40), iv(30, 60)}, 50},
		{"nested counted once", []interval{iv(10, 90), iv(20, 30)}, 20},
		{"touching", []interval{iv(10, 20), iv(20, 30)}, 80},
		{"clipped to the span", []interval{iv(-50, 10), iv(90, 200)}, 80},
		{"outside the span", []interval{iv(200, 300)}, 100},
		{"unsorted parallel children", []interval{iv(60, 70), iv(0, 50), iv(40, 65)}, 30},
	} {
		if got := selfTime(iv(0, 100), tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRecorderLayerTimesUseSelfTime(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{ID: 1, Trace: 1, Name: "clean.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "core.analyze", Start: 10, End: 50},
		{ID: 3, Parent: 1, Trace: 1, Name: "core.detect", Start: 50, End: 70},
		{ID: 4, Trace: 2, Name: "clean.run", Start: 200, End: 260},
	}
	got := r.layerTimes("clean.run")
	if got[1] != 40 || got[2] != 60 {
		t.Errorf("clean.run self times = %v, want trace 1: 40, trace 2: 60", got)
	}
	var nilRec *recorder
	s := nilRec.begin("x", 0, 1)
	if s.id() != 0 {
		t.Error("a nil recorder must hand out id 0")
	}
	s.end()
}

func TestTallyCountsEveryFailureKind(t *testing.T) {
	var tl tally
	tl.status(200, nil)
	tl.status(200, nil)
	tl.status(429, nil) // shed by admission control
	tl.status(503, nil) // timed out or shard down
	tl.status(404, nil)
	tl.status(0, errors.New("connection reset"))
	tl.ok()
	tl.markFailed("body mismatch") // a 200 whose bytes failed the check
	tl.fail("error")
	if tl.Attempted != 8 || tl.Failed != 6 {
		t.Fatalf("attempted %d failed %d, want 8 and 6", tl.Attempted, tl.Failed)
	}
	want := map[string]int{"shed": 1, "status": 2, "error": 2, "body mismatch": 1}
	for k, v := range want {
		if tl.Causes[k] != v {
			t.Errorf("causes[%q] = %d, want %d (all: %v)", k, tl.Causes[k], v, tl.Causes)
		}
	}
	if r := tl.ratio(); !near(r, 6.0/8) {
		t.Errorf("fail ratio = %v, want 0.75", r)
	}
	var empty tally
	if !near(empty.ratio(), 0) {
		t.Error("an empty tally must report ratio 0")
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
