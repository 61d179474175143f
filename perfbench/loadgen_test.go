package main

import (
	"sync"
	"testing"
	"time"
)

const msec = time.Millisecond

// ex builds an exchange from due, sent and done times in milliseconds.
func ex(due, sent, done float64) exchange {
	d := func(x float64) time.Duration { return time.Duration(x * float64(msec)) }
	return exchange{Due: d(due), Sent: d(sent), Done: d(done), Status: 200}
}

func TestAccountTimesFromDueAndCountsLateness(t *testing.T) {
	// One connection at 1000 req/s; request 3 stalls for 5 ms, so
	// requests 4-8 queue behind it and go out late.
	xs := []exchange{
		ex(0, 0, 0.1), ex(1, 1, 1.1), ex(2, 2, 2.1), ex(3, 3, 8),
		ex(4, 8, 8.1), ex(5, 8.1, 8.2), ex(6, 8.2, 8.3), ex(7, 8.3, 8.4),
		ex(8, 8.4, 8.5), ex(9, 9, 9.1),
	}
	st := account(xs, 1, func(int) bool { return true })
	want := []float64{100, 100, 100, 100, 500, 1400, 2300, 3200, 4100, 5000}
	if len(st.LatencyUs) != len(want) {
		t.Fatalf("latencies %v, want %v", st.LatencyUs, want)
	}
	for i := range want {
		if !nearUs(st.LatencyUs[i], want[i]) {
			t.Fatalf("latencies %v, want %v: each is measured from its due time", st.LatencyUs, want)
		}
	}
	if !nearUs(st.LateP99Us, 4000) {
		t.Errorf("late p99 = %v us, want 4000 (request 4 went out 4 ms late)", st.LateP99Us)
	}
	if st.BacklogMax != 5 {
		t.Errorf("backlog max = %d, want 5 (requests 4-8 due, none sent, at 8 ms)", st.BacklogMax)
	}
	if st.BacklogEnd != 0 || st.Growing {
		t.Errorf("backlog end %d growing %v: the generator caught up before the schedule ended", st.BacklogEnd, st.Growing)
	}
	if meetsSLO(st, 0, 1e9) {
		t.Error("ten samples have no tail value, so the SLO cannot be shown met")
	}
}

func TestAccountDetectsGrowingBacklog(t *testing.T) {
	// Each request takes 2 ms but one is due every 1 ms: the generator
	// falls further behind with every request.
	var xs []exchange
	for i := 0; i < 20; i++ {
		xs = append(xs, ex(float64(i), float64(2*i), float64(2*i+2)))
	}
	st := account(xs, 1, func(int) bool { return true })
	if st.BacklogEnd != 10 || !st.Growing {
		t.Errorf("backlog end %d growing %v, want 10 unsent at the last due time and growing", st.BacklogEnd, st.Growing)
	}
	if meetsSLO(st, 0, 1e9) {
		t.Error("a growing backlog must miss the SLO whatever the latency limit")
	}
}

func TestMeetsSLO(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i * 10) // tail: 890 us
	}
	st := loadStats{LatencyUs: lat}
	if !meetsSLO(st, 0, 890) {
		t.Error("tail at the limit must meet it")
	}
	if meetsSLO(st, 0, 889) {
		t.Error("tail over the limit must miss it")
	}
	if meetsSLO(st, 1, 1e9) {
		t.Error("a failed request must miss the SLO")
	}
	if meetsSLO(loadStats{LatencyUs: lat[:10]}, 0, 1e9) {
		t.Error("too few samples for a tail must not meet the SLO")
	}
}

func TestAccountSelectsLatencies(t *testing.T) {
	xs := []exchange{ex(0, 0, 1), ex(1, 1, 50), ex(2, 2, 3)}
	xs[2].Status = 500
	st := account(xs, 1, func(i int) bool { return i != 1 })
	if len(st.LatencyUs) != 1 || !nearUs(st.LatencyUs[0], 1000) {
		t.Errorf("latencies %v: want only request 0 (1 is excluded, 2 failed)", st.LatencyUs)
	}
}

func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const n, rate = 60, 2000.0
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{Endpoint: "stats", Sample: i%2 == 0}
	}
	var mu sync.Mutex
	seen := 0
	xs := openLoop(reqs, rate, 1, func(conn int, q request) (int, []byte, error) {
		mu.Lock()
		i := seen
		seen++
		mu.Unlock()
		if i == 20 {
			time.Sleep(30 * msec)
		}
		return 200, []byte("ok"), nil
	})
	for i, x := range xs {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if x.Due != due || x.Sent < x.Due || x.Done < x.Sent {
			t.Fatalf("request %d: due %v sent %v done %v, want due %v <= sent <= done", i, x.Due, x.Sent, x.Done, due)
		}
		if (x.Body != nil) != reqs[i].Sample || x.Size != 2 {
			t.Fatalf("request %d: body %q size %d sampled %v", i, x.Body, x.Size, reqs[i].Sample)
		}
	}
	// Request 21 was due 0.5 ms after the stalled one was sent; it could
	// only go out when the stall ended, and that wait is its latency.
	if late := xs[21].Sent - xs[21].Due; late < 25*msec {
		t.Errorf("request 21 went out %v late, want about 30 ms", late)
	}
	st := account(xs, 1, func(int) bool { return true })
	if st.BacklogMax != n-21 {
		t.Errorf("backlog max %d, want %d: requests 21-59 all fell due during the stall", st.BacklogMax, n-21)
	}
	if got := tail(st.LatencyUs); !got.OK || got.Value < 25000 {
		t.Errorf("tail %+v, want at least 25 ms: the stall delayed more than ten requests", got)
	}
}

func nearUs(a, b float64) bool { return a-b < 0.01 && b-a < 0.01 }

func TestLadderReportsTheHighestPassingStep(t *testing.T) {
	var tried []float64
	highest, steps := ladder(1000, func() bool { return true }, func(rate float64) bool {
		tried = append(tried, rate)
		return rate <= 2000
	})
	// 1000, 1250, 1562.5 pass; 1953.125 passes; 2441.4 fails and ends it.
	if steps != 5 || len(tried) != 5 || !near(highest, 1000*ladderFactor*ladderFactor*ladderFactor) {
		t.Errorf("highest %v after %d steps (%v), want 1953.125 after 5", highest, steps, tried)
	}
	for i := 1; i < len(tried); i++ {
		if !near(tried[i], tried[i-1]*ladderFactor) {
			t.Errorf("steps %v are not %v apart", tried, ladderFactor)
		}
	}

	n := 0
	if highest, steps := ladder(1000, func() bool { n++; return n <= 3 }, func(float64) bool { return true }); steps != 3 || !near(highest, 1000*ladderFactor*ladderFactor) {
		t.Errorf("out of time after 3 passing steps: highest %v after %d, want 1562.5 after 3", highest, steps)
	}
	if highest, steps := ladder(1000, func() bool { return true }, func(float64) bool { return false }); highest != 0 || steps != 1 {
		t.Errorf("a failing first step: highest %v after %d, want 0 after 1", highest, steps)
	}
	if highest, steps := ladder(1000, func() bool { return false }, nil); highest != 0 || steps != 0 {
		t.Errorf("no time for a step: highest %v after %d, want 0 after 0", highest, steps)
	}
}

func TestClosedLoopSendsBackToBackWithTimedReloads(t *testing.T) {
	reqs := make([]request, 100000)
	for i := range reqs {
		reqs[i] = request{Endpoint: "stats"}
	}
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	send := func(conn int, q request) (int, []byte, error) {
		mu.Lock()
		inFlight++
		maxInFlight = max(maxInFlight, inFlight)
		mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return 200, nil, nil
	}
	xs, reloads := closedLoop(reqs, 2, 60*msec, request{Endpoint: "reload"}, 20*msec, send)
	if len(xs) == 0 || len(xs) == len(reqs) {
		t.Fatalf("%d exchanges: the loop must stop on time, not on the request list", len(xs))
	}
	for i, x := range xs {
		if x.Status != 200 || x.Done < x.Sent {
			t.Fatalf("exchange %d not completed: %+v", i, x)
		}
	}
	if len(reloads) < 2 || len(reloads) > 4 {
		t.Errorf("%d reloads in 60 ms at one per 20 ms, want about 3", len(reloads))
	}
	if maxInFlight > 2 {
		t.Errorf("%d requests in flight over 2 connections", maxInFlight)
	}
	if xs, reloads := closedLoop(reqs[:5], 2, time.Second, request{}, 0, send); len(xs) != 5 || len(reloads) != 0 {
		t.Errorf("a short list: %d exchanges and %d reloads, want 5 and 0", len(xs), len(reloads))
	}
}
