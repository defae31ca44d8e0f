package main

// Load generation: one process, two connections. A closed loop runs two
// clients that each send their next request when the previous answer is
// in; the open loop sends on a fixed schedule from two senders and times
// each request from when it was due, so a stall is charged to every request
// it delayed.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the number of concurrent requests, and so connections, the
// generator ever has open.
const clients = 2

// client is the generator's HTTP side.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call posts one request and checks the answer.
func (c *client) call(ctx context.Context, req request, traced bool) outcome {
	path := req.path
	if traced && path == "/v1/decide" {
		path += "?trace=1"
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(req.body))
	if err != nil {
		return outcome{failed: req.units}
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return outcome{failed: req.units}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return outcome{failed: req.units}
	}
	return req.check(body)
}

// get fetches one monitoring endpoint.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// rec is one timed request; times are offsets from the phase start.
type rec struct {
	id              int64
	due, start, end time.Duration
	// late is how long after its due time an idle open-loop sender woke
	// (-1 when the sender was still busy at the due time, or in a closed
	// loop): the generator's own lateness, not the server's.
	late  time.Duration
	trace *traceBlock
}

// phase is the result of one timed loop.
type phase struct {
	recs                         []rec
	elapsed                      time.Duration
	units, failed, wrong, checks int
	invalid                      error
}

func (p *phase) add(o outcome, units int) {
	p.units += units
	p.failed += o.failed
	p.wrong += o.wrong
	p.checks += o.checks
	if o.invalid != nil && p.invalid == nil {
		p.invalid = o.invalid
	}
}

// goodPerSec is the rate of correctly completed operations.
func (p *phase) goodPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.units-p.failed) / p.elapsed.Seconds()
}

// sequential sends reqs one at a time (warm-up).
func sequential(ctx context.Context, c *client, reqs []request) phase {
	var p phase
	t0 := time.Now()
	for _, r := range reqs {
		p.add(c.call(ctx, r, false), r.units)
	}
	p.elapsed = time.Since(t0)
	return p
}

// loop runs one timed phase of w for dur. With rate > 0 it is an open loop
// at rate requests per second, otherwise a closed loop. next is the shared
// stream position, so consecutive phases never resend a request.
func loop(ctx context.Context, c *client, w *workload, next *atomic.Int64, dur time.Duration, rate float64, traced bool) phase {
	var (
		mu  sync.Mutex
		all phase
		wg  sync.WaitGroup
	)
	interval := time.Duration(0)
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	base := next.Load()
	t0 := time.Now()
	for s := 0; s < clients; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine phase
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				r := rec{id: i, late: -1}
				now := time.Since(t0)
				if rate > 0 {
					r.due = time.Duration(i-base) * interval
					if r.due >= dur {
						break
					}
					if wait := r.due - now; wait > 0 {
						sleep(wait)
						now = time.Since(t0)
						r.late = now - r.due
					}
				} else {
					if now >= dur {
						break
					}
					r.due = now
				}
				r.start = now
				req := w.next(int(i))
				o := c.call(ctx, req, traced)
				r.end = time.Since(t0)
				r.trace = o.trace
				mine.recs = append(mine.recs, r)
				mine.add(o, req.units)
			}
			mu.Lock()
			all.merge(mine) // all.elapsed is still 0: no time shift
			mu.Unlock()
		}()
	}
	wg.Wait()
	all.elapsed = time.Since(t0)
	return all
}

// sleep blocks the calling thread in nanosleep(2). time.Sleep would park
// the goroutine on the runtime's poller, whose sub-millisecond waits round
// up to a whole millisecond, making the open loop late by up to 1 ms at
// every idle gap.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// lateness returns the idle senders' wake-up delays.
func (p *phase) lateness() []time.Duration {
	var out []time.Duration
	for _, r := range p.recs {
		if r.late >= 0 {
			out = append(out, r.late)
		}
	}
	return out
}

// measured is one measurement of a workload: its open-loop part (decide-hot
// only) and its closed-loop part.
type measured struct {
	open, closed phase
}

// measure runs w for dur: decide-hot spends openShare of it in the open loop
// and the rest in the closed loop, the others run closed throughout.
func measure(ctx context.Context, c *client, w *workload, next *atomic.Int64, dur time.Duration, traced bool) measured {
	var m measured
	if w.openRate > 0 {
		od := time.Duration(float64(dur) * openShare)
		m.open = loop(ctx, c, w, next, od, w.openRate, traced)
		dur -= od
	}
	m.closed = loop(ctx, c, w, next, dur, 0, traced)
	return m
}

// latencyPhase is the phase whose latencies the workload reports.
func (m *measured) latencyPhase() *phase {
	if len(m.open.recs) > 0 {
		return &m.open
	}
	return &m.closed
}

func (m *measured) total() phase {
	var t phase
	t.merge(m.open)
	t.merge(m.closed)
	return t
}

// merge appends q to p as if q had run right after p.
func (p *phase) merge(q phase) {
	for _, r := range q.recs {
		r.due += p.elapsed
		r.start += p.elapsed
		r.end += p.elapsed
		p.recs = append(p.recs, r)
	}
	p.add(outcome{failed: q.failed, wrong: q.wrong, checks: q.checks, invalid: q.invalid}, q.units)
	p.elapsed += q.elapsed
}

// alternations is how many workload slices a normalized measurement runs,
// each between two reference slices; the workload gets two thirds of the
// time.
const alternations = 12

// slice is one workload slice and the machine speed around it.
type slice struct {
	measured
	// speed is the reference's mean rate in the slices before and after,
	// over its nominal rate: 1 on the nominal machine, below 1 on a slower
	// one.
	speed float64
	cpu   time.Duration // the server's CPU time during the slice
}

// normalized is a measurement of the workload interleaved with the
// reference server: every slice merged (for the gates, counters and spans),
// the slices themselves, and the server's resident set sampled during
// them.
type normalized struct {
	measured
	slices []slice
	rssMB  []float64
}

// measureNormalized measures w for dur in slices, each between two slices
// of the same closed loop against the reference. srv, when non-nil, is the
// server process whose CPU time and resident set are read.
func measureNormalized(ctx context.Context, c, ref *client, srv *server, w *workload, next, refNext *atomic.Int64, dur time.Duration, traced bool) (normalized, error) {
	var n normalized
	refRate := func() float64 {
		p := referenceLoop(ctx, ref, w, refNext, dur/3/(alternations+1))
		return p.goodPerSec() / referenceNominal[w.name]
	}
	before := refRate()
	for k := 0; k < alternations && ctx.Err() == nil; k++ {
		var s slice
		if srv == nil {
			s.measured = measure(ctx, c, w, next, dur*2/3/alternations, traced)
		} else {
			c0, err := srv.cpuTime()
			if err != nil {
				return n, err
			}
			stop := srv.sampleRSS(&n.rssMB)
			s.measured = measure(ctx, c, w, next, dur*2/3/alternations, traced)
			c1, err := srv.cpuTime()
			if err = errors.Join(err, stop()); err != nil {
				return n, err
			}
			s.cpu = c1 - c0
		}
		after := refRate()
		s.speed, before = (before+after)/2, after
		n.slices = append(n.slices, s)
		n.open.merge(s.open)
		n.closed.merge(s.closed)
	}
	return n, nil
}

// median returns the median over slices of f.
func (n *normalized) median(f func(s *slice) float64) float64 {
	v := make([]float64, len(n.slices))
	for i := range n.slices {
		v[i] = f(&n.slices[i])
	}
	_, q2, _ := quartiles(v)
	return q2
}

// speed is the machine's median speed over the slices.
func (n *normalized) speed() float64 {
	return n.median(func(s *slice) float64 { return s.speed })
}

// rate is the median over slices of the correct closed-loop operations per
// second, at nominal machine speed.
func (n *normalized) rate() float64 {
	return n.median(func(s *slice) float64 { return s.closed.goodPerSec() / s.speed })
}

// cpuPerOp is the median over slices of the server's CPU milliseconds per
// operation, at nominal machine speed.
func (n *normalized) cpuPerOp() float64 {
	return n.median(func(s *slice) float64 {
		ops := s.open.units + s.closed.units
		return ratio(float64(s.cpu)/float64(time.Millisecond), float64(ops)) * s.speed
	})
}

// latencies returns the reported latencies in milliseconds at nominal
// machine speed, each scaled by its own slice's speed, sorted.
func (n *normalized) latencies() []float64 {
	var out []float64
	for i := range n.slices {
		s := &n.slices[i]
		for _, r := range s.latencyPhase().recs {
			out = append(out, float64(r.end-r.due)/float64(time.Millisecond)*s.speed)
		}
	}
	sort.Float64s(out)
	return out
}
