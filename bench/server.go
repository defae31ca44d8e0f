package main

// The dualserved process under test: start with default flags on
// 127.0.0.1:0, wait for /readyz, read its CPU time and resident set from /proc,
// scrape /statsz and /metricsz, and stop it.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the tick rate of the utime/stime fields of /proc/<pid>/stat,
// fixed at 100 by the Linux ABI.
const userHZ = 100

type server struct {
	cmd  *exec.Cmd
	c    *client
	done chan struct{} // closed once the process has been reaped
}

// startServer launches bin (dualserved on 127.0.0.1:0 unless args say
// otherwise) and returns once /readyz answers 200, with the time that took.
// The process must print "... listening on <addr>" as its first line.
func startServer(ctx context.Context, bin string, args ...string) (*server, time.Duration, error) {
	if len(args) == 0 {
		args = []string{"-addr", "127.0.0.1:0"}
	}
	t0 := time.Now()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// Should the benchmark be killed outright, the server goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	first := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		first <- line
		_, _ = io.Copy(io.Discard, br)
		_ = cmd.Wait() // after the last read, as exec requires
		close(s.done)
	}()
	var line string
	select {
	case line = <-first:
	case <-time.After(10 * time.Second):
	}
	_, addr, ok := strings.Cut(strings.TrimSpace(line), " listening on ")
	if !ok {
		s.stop()
		return nil, 0, fmt.Errorf("%s printed %q instead of its address", bin, line)
	}
	s.c = newClient("http://" + addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := s.c.get(ctx, "/readyz"); err == nil {
			return s, time.Since(t0), nil
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("%s exited before it was ready", bin)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("%s not ready after 10s", bin)
		}
	}
}

// stop terminates the server gracefully and waits until it has exited.
func (s *server) stop() {
	if s.c != nil {
		s.c.close()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// cpuTime is the server's user plus system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// rssMB is the server's resident set size (VmRSS) in MB.
func (s *server) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// rssInterval is how often sampleRSS reads the resident set. Under load it
// saws with every garbage collection; many samples give a steady median.
const rssInterval = 100 * time.Millisecond

// sampleRSS appends the server's resident set to dst every rssInterval
// until the returned stop function is called; stop waits for the sampler
// and returns its first error.
func (s *server) sampleRSS(dst *[]float64) (stop func() error) {
	quit, done := make(chan struct{}), make(chan error, 1)
	go func() {
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				done <- nil
				return
			case <-t.C:
				mb, err := s.rssMB()
				if err != nil {
					done <- err
					return
				}
				*dst = append(*dst, mb)
			}
		}
	}()
	return func() error {
		close(quit)
		return <-done
	}
}

// counters is the part of /statsz the benchmark reads, plus the /metricsz
// series it needs (request-time and stage-time sums).
type counters struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Batch struct {
		Items     int64 `json:"items"`
		Unique    int64 `json:"unique"`
		Deduped   int64 `json:"deduped"`
		CacheHits int64 `json:"cache_hits"`
		Decisions int64 `json:"decisions"`
	} `json:"batch"`
	Memo struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"memo"`
	Decompositions int64 `json:"decompositions"`
	Coalesced      int64 `json:"coalesced"`
	Resilience     struct {
		Sheds    int64 `json:"sheds"`
		Timeouts int64 `json:"timeouts"`
	} `json:"resilience"`

	// From /metricsz: the endpoint's request count and summed seconds, and
	// the decision stage seconds summed over engines and stages.
	reqCount, reqSeconds, stageSeconds float64
}

// minus returns the counter delta k − b.
func (k counters) minus(b counters) counters {
	d := k
	d.Cache.Hits -= b.Cache.Hits
	d.Cache.Misses -= b.Cache.Misses
	d.Batch.Items -= b.Batch.Items
	d.Batch.Unique -= b.Batch.Unique
	d.Batch.Deduped -= b.Batch.Deduped
	d.Batch.CacheHits -= b.Batch.CacheHits
	d.Batch.Decisions -= b.Batch.Decisions
	d.Memo.Hits -= b.Memo.Hits
	d.Memo.Misses -= b.Memo.Misses
	d.Memo.Evictions -= b.Memo.Evictions
	d.Decompositions -= b.Decompositions
	d.Coalesced -= b.Coalesced
	d.Resilience.Sheds -= b.Resilience.Sheds
	d.Resilience.Timeouts -= b.Resilience.Timeouts
	d.reqCount -= b.reqCount
	d.reqSeconds -= b.reqSeconds
	d.stageSeconds -= b.stageSeconds
	return d
}

// scrape snapshots the counters; endpoint is the label of the workload's
// requests.
func scrape(ctx context.Context, c *client, endpoint string) (counters, error) {
	var k counters
	b, err := c.get(ctx, "/statsz")
	if err != nil {
		return k, err
	}
	if err := json.Unmarshal(b, &k); err != nil {
		return k, fmt.Errorf("decoding /statsz: %w", err)
	}
	m, err := c.get(ctx, "/metricsz")
	if err != nil {
		return k, err
	}
	label := `{endpoint="` + endpoint + `"} `
	for _, line := range strings.Split(string(m), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp+1]
		switch {
		case series == "dualspace_http_request_duration_seconds_count"+label:
			k.reqCount = v
		case series == "dualspace_http_request_duration_seconds_sum"+label:
			k.reqSeconds = v
		case strings.HasPrefix(series, "dualspace_decide_stage_duration_seconds_sum{"):
			k.stageSeconds += v
		}
	}
	return k, nil
}
