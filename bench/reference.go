package main

// The reference server. The machines this benchmark runs on share their
// processors with other tenants, and their speed drifts by ±25% over
// minutes (README.md, "Machine-speed normalization"). So a measurement
// alternates slices of the workload with slices of the same closed loop
// against this reference: a process built from this directory and the
// standard library alone, which a change to dualspace cannot speed up or
// slow down. Its rate in the interleaved slices measures the machine, and
// the timing metrics are scaled to a machine on which it runs at its
// nominal rate.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// referenceNominal is, per workload, the reference's closed-loop rate
// (req/s) on the workload's request bodies: the median over calibration
// runs on a 2-vCPU 2.0 GHz Xeon virtual machine. It is the machine-speed
// unit the timing metrics are reported in.
var referenceNominal = map[string]float64{
	"decide-hot":   10500,
	"decide-cold":  14400,
	"batch-mixed":  177,
	"mine-borders": 1530,
}

// serveReference runs the reference server until the process is killed.
func serveReference() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("reference listening on %s\n", ln.Addr())
	return (&http.Server{Handler: referenceHandler(), ReadHeaderTimeout: 10 * time.Second}).Serve(ln)
}

func referenceHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("POST /ref", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			var sum uint64
			if sum, err = referenceWork(body); err == nil {
				fmt.Fprintf(w, "{\"sum\":%d}\n", sum)
				return
			}
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
	})
	return mux
}

// referenceWork does, on one request body, work of the kinds dualserved
// does: JSON decoding, tokenizing and interning names, building vertex
// bitmasks, sorting and hashing them, and a quadratic pass of mask
// intersections.
func referenceWork(body []byte) (uint64, error) {
	var sum uint64
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var req struct {
			G, H, Data string
		}
		if err := dec.Decode(&req); err == io.EOF {
			return sum, nil
		} else if err != nil {
			return 0, err
		}
		for _, text := range []string{req.G, req.H, req.Data} {
			sum += maskWork(text)
		}
	}
}

func maskWork(text string) uint64 {
	names := map[string]uint{}
	var masks []uint64
	for _, line := range strings.Split(text, "\n") {
		var m uint64
		for _, f := range strings.Fields(line) {
			i, ok := names[f]
			if !ok {
				i = uint(len(names)) % 64
				names[f] = i
			}
			m |= 1 << i
		}
		if m != 0 {
			masks = append(masks, m)
		}
	}
	slices.Sort(masks)
	h := sha256.New()
	var b [8]byte
	for _, m := range masks {
		binary.LittleEndian.PutUint64(b[:], m)
		h.Write(b[:])
	}
	sum := binary.LittleEndian.Uint64(h.Sum(nil))
	for i, a := range masks {
		for _, c := range masks[i+1:] {
			if a&c == 0 {
				sum++
			}
		}
	}
	return sum
}

// startReference launches this binary as the reference server.
func startReference(ctx context.Context) (*server, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s, _, err := startServer(ctx, self, "-reference")
	return s, err
}

// referenceLoop runs the closed loop of w against the reference for dur,
// posting w's own request bodies.
func referenceLoop(ctx context.Context, ref *client, w *workload, next *atomic.Int64, dur time.Duration) phase {
	rw := *w
	rw.next = func(i int) request {
		return request{path: "/ref", body: w.next(i).body, units: 1,
			check: func([]byte) outcome { return outcome{} }}
	}
	return loop(ctx, ref, &rw, next, dur, 0, false)
}
