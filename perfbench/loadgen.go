package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// exchange records one scheduled request. Times are offsets from the
// schedule's start: Due is when the schedule wanted it sent, Sent when
// a connection was free to send it, Done when the answer was read.
type exchange struct {
	Due, Sent, Done time.Duration
	Status          int
	Err             error
	Size            int
	// Body is kept only for requests sampled for the output check.
	Body []byte
}

// sender performs one request on connection conn and returns the
// answer's status and body.
type sender func(conn int, req request) (status int, body []byte, err error)

// openLoop issues reqs on a fixed schedule: request i is due i/rate
// seconds after the start, whether or not earlier answers are back.
// One pacer hands each request over when it falls due; conns
// connections each take the next one handed over and send it, at once
// or as soon as they are free. Latency is measured from the due time,
// so a stall also counts against every request it held up. Only the
// pacer sleeps, so the connections and the HTTP transport keep the
// other Ps while it waits in nanosleep.
func openLoop(reqs []request, rate float64, conns int, send sender) []exchange {
	out := make([]exchange, len(reqs))
	due := make(chan int, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range due {
				x := &out[i]
				x.Sent = time.Since(start)
				var body []byte
				x.Status, body, x.Err = send(c, reqs[i])
				x.Done = time.Since(start)
				x.Size = len(body)
				if reqs[i].Sample {
					x.Body = body
				}
			}
		}(c)
	}
	for i := range reqs {
		at := time.Duration(float64(i) / rate * float64(time.Second))
		if wait := at - time.Since(start); wait > 0 {
			sleep(wait)
		}
		out[i].Due = at
		due <- i
		// The connection just woken waits on this P; yield it before the
		// next nanosleep holds it.
		runtime.Gosched()
	}
	close(due)
	wg.Wait()
	return out
}

// closedLoop sends reqs over conns connections, each sending its next
// request as soon as the previous answer is read, until d has passed or
// reqs run out: the rate the server sustains when a request is always
// waiting. With every > 0, the first connection free after each period
// of that length sends reload instead of a request. It returns the
// exchanges of reqs in order, and those of the reloads.
func closedLoop(reqs []request, conns int, d time.Duration, reload request, every time.Duration, send sender) (xs, reloads []exchange) {
	out := make([]exchange, len(reqs))
	var next atomic.Int64
	var mu sync.Mutex
	lastReload := time.Duration(0)
	var wg sync.WaitGroup
	start := time.Now()
	exchangeOne := func(c int, q request, x *exchange) {
		x.Sent = time.Since(start)
		x.Due = x.Sent
		var body []byte
		x.Status, body, x.Err = send(c, q)
		x.Done = time.Since(start)
		x.Size = len(body)
		if q.Sample {
			x.Body = body
		}
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for now := time.Since(start); now < d; now = time.Since(start) {
				mu.Lock()
				due := every > 0 && now-lastReload >= every
				if due {
					lastReload = now
				}
				mu.Unlock()
				if due {
					var x exchange
					exchangeOne(c, reload, &x)
					mu.Lock()
					reloads = append(reloads, x)
					mu.Unlock()
					continue
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				exchangeOne(c, reqs[i], &out[i])
			}
		}(c)
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(reqs))], reloads
}

// sleep waits in nanosleep(2). time.Sleep wakes through the runtime's
// network poller, whose timeout has millisecond resolution, so it would
// send sub-millisecond-spaced requests up to a millisecond late.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// loadStats summarises an open-loop run.
type loadStats struct {
	// LatencyUs holds due-to-done latencies of the successful exchanges
	// selected, ascending.
	LatencyUs []float64
	// LateP99Us is the 99th percentile of how late requests were sent.
	LateP99Us float64
	// BacklogMax is the most requests that were due but not yet sent at
	// any send. BacklogEnd counts the requests still unsent when the last
	// one fell due: how far behind the schedule the generator ended.
	BacklogMax, BacklogEnd int
	// Growing reports a backlog that ended above both the connection
	// count and the largest backlog of the run's first half: the
	// generator fell behind the schedule and did not catch up.
	Growing bool
}

// account computes latency, lateness and backlog for the exchanges,
// with latencies taken over those for which keep returns true.
func account(xs []exchange, conns int, keep func(i int) bool) loadStats {
	var st loadStats
	if len(xs) == 0 {
		return st
	}
	late := make([]float64, len(xs))
	dues := make([]time.Duration, len(xs))
	sends := make([]time.Duration, len(xs))
	for i, x := range xs {
		late[i] = float64(x.Sent-x.Due) / float64(time.Microsecond)
		dues[i], sends[i] = x.Due, x.Sent
		if x.Err == nil && x.Status == 200 && keep(i) {
			st.LatencyUs = append(st.LatencyUs, float64(x.Done-x.Due)/float64(time.Microsecond))
		}
	}
	sort.Float64s(st.LatencyUs)
	sort.Float64s(late)
	st.LateP99Us = late[(len(late)*99)/100]
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	sort.Slice(sends, func(i, j int) bool { return sends[i] < sends[j] })
	// At the k-th send, the backlog is the number of requests due by
	// then minus the k already sent before it.
	d, firstHalfMax := 0, 0
	last := dues[len(dues)-1]
	for k, t := range sends {
		for d < len(dues) && dues[d] <= t {
			d++
		}
		b := d - k
		if b > st.BacklogMax {
			st.BacklogMax = b
		}
		if t <= last/2 && b > firstHalfMax {
			firstHalfMax = b
		}
		if t > last {
			st.BacklogEnd++
		}
	}
	st.Growing = st.BacklogEnd > conns && st.BacklogEnd > firstHalfMax
	return st
}

// meetsSLO reports whether a step met the service level objective: no
// failed request, a tail latency within sloUs, and no growing backlog.
func meetsSLO(st loadStats, failed int, sloUs float64) bool {
	t := tail(st.LatencyUs)
	return failed == 0 && t.OK && t.Value <= sloUs && !st.Growing
}
