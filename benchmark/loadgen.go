package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// clientConns bounds the load generator: one process, at most this many
// connections and sending goroutines (the box's CPU count). The open
// loop uses them all; the closed loop uses one.
const clientConns = 2

// requestTimeout fails a request that has not answered in time.
const requestTimeout = 30 * time.Second

// poissonSchedule returns the due offsets of a Poisson arrival process
// at rate requests per second over d, drawn from seed.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= d.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// upload is one request the generator sends.
type upload struct {
	body  []byte
	query string
	// input indexes the workload's input table (reference makespan,
	// trace replay); repost marks a scenario sent before.
	input  int
	repost bool
}

// sample is one request's outcome. Times are offsets from the phase
// start: due is when the request should have been sent, dispatched
// when the generator queued it, sent when a connection took it, end
// when its response was read.
type sample struct {
	req                        int
	due, dispatched, sent, end time.Duration
	status                     int
	err                        error // transport error or failed check
	// reply is the checked response (its plan dropped), nil when the
	// request failed; bytes its size; head the start of a failed
	// response's body.
	reply *scheduleReply
	bytes int
	head  []byte
	span  int // request span ID of a traced run
}

// ok reports whether the request succeeded and its answer checked out.
func (s *sample) ok() bool { return s.reply != nil }

// loadgen sends uploads to one noctestd over a plain keep-alive client:
// no retries, so every 429, other non-200, transport error and timeout
// shows up as a failed sample.
type loadgen struct {
	base   string
	client *http.Client
	tr     *tracer
	check  *checker
}

func newLoadgen(base string, tr *tracer, check *checker) *loadgen {
	return &loadgen{base: base, tr: tr, check: check, client: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
			DisableCompression:  true,
		},
	}}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// send posts one upload, fills in the sample's status and end, and
// then checks the answer. Checking as responses arrive keeps no bodies
// in memory; its cost delays this client's next request, not the
// latency of this one.
//
// buf is the sending goroutine's reusable response buffer.
func (g *loadgen) send(u upload, s *sample, t0 time.Time, buf *bytes.Buffer) {
	resp, err := g.client.Post(g.base+"/schedule?"+u.query, "text/plain", bytes.NewReader(u.body))
	if err != nil {
		s.err = err
		s.end = time.Since(t0)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.end = time.Since(t0)
	body := buf.Bytes()
	s.status, s.bytes = resp.StatusCode, len(body)
	switch {
	case err != nil:
		s.err = err
	case s.status != http.StatusOK:
		s.head = append([]byte(nil), body[:min(len(body), 120)]...)
	default:
		s.reply, s.err = g.check.check(u, body)
	}
}

// sequence returns the i-th upload of a workload's seeded request
// sequence, and false past its end.
type sequence func(i int) (upload, bool)

// openLoop sends the i-th upload of seq at due[i] after the phase
// starts, whether or not earlier requests have answered; at most
// clientConns are in flight, so a stall queues later requests in the
// generator, and each latency counts from the due time.
func (g *loadgen) openLoop(seq sequence, due []time.Duration) []sample {
	samples := make([]sample, len(due))
	queue := make(chan int, len(due)) // sized to the number of sends
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				s := &samples[i]
				s.sent = time.Since(t0)
				u, _ := seq(i)
				g.send(u, s, t0, &buf)
				g.traceRequest(i, s, t0)
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		samples[i].req = i
		samples[i].due = d
		samples[i].dispatched = time.Since(t0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// closedLoop sends seq's uploads from its first-th on back to back
// over one connection, until d has passed or seq ends. It returns the
// samples, the phase's wall time, and whether seq ended first.
//
// One client, not clientConns: with two clients the server's two
// workers and the generator oversubscribe two CPUs, and the server's
// CPU time per request moved by up to 15% between runs of the same
// seed; with one it held within 5%.
func (g *loadgen) closedLoop(seq sequence, first int, d time.Duration) ([]sample, time.Duration, bool) {
	var samples []sample
	var buf bytes.Buffer
	t0 := time.Now()
	for i := first; time.Since(t0) < d; i++ {
		u, ok := seq(i)
		if !ok {
			return samples, time.Since(t0), true
		}
		s := sample{req: i, due: time.Since(t0)}
		s.dispatched, s.sent = s.due, s.due
		g.send(u, &s, t0, &buf)
		g.traceRequest(i, &s, t0)
		samples = append(samples, s)
	}
	return samples, time.Since(t0), false
}

// traceRequest records the request span (from the send to the read of
// the response) of a traced run.
func (g *loadgen) traceRequest(op int, s *sample, t0 time.Time) {
	s.span = g.tr.record(op, -1, "noctestd", "noctestd.request", t0.Add(s.sent), t0.Add(s.end), false)
}

func (s *sample) describe() string {
	if s.err != nil {
		return fmt.Sprintf("request %d: %v", s.req, s.err)
	}
	return fmt.Sprintf("request %d: HTTP %d: %s", s.req, s.status, bytes.TrimSpace(s.head))
}
