// Command dualcheck decides whether two simple hypergraphs (equivalently,
// two irredundant monotone DNFs) are dual.
//
// Usage:
//
//	dualcheck [-engine portfolio|core|core-parallel|fk-a|fk-b|logspace]
//	          [-workers n] [-certificate [-mode replay|strict|pipelined]]
//	          G.hg H.hg
//
// Each input file lists one hyperedge per line as whitespace-separated
// vertex names ('-' denotes the empty edge, '#' starts a comment). The two
// files share one vertex universe. The decision runs on the selected
// engine; the default portfolio dispatches on instance shape. -workers
// bounds core-parallel's goroutines. -certificate follows the engine's
// precondition check with the space-bounded fail-path search, whose regime
// -mode selects. Exit status: 0 dual, 1 not dual, 2 error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"dualspace"
	"dualspace/internal/core"
	"dualspace/internal/hgio"
	"dualspace/internal/logspace"
)

func main() {
	engineName := flag.String("engine", "", "decision engine: "+strings.Join(dualspace.EngineNames(), ", ")+" (default portfolio)")
	certificate := flag.Bool("certificate", false, "search for a fail-path certificate and report its peak workspace")
	mode := flag.String("mode", "replay", "space regime for -certificate: replay, strict, pipelined")
	workers := flag.Int("workers", 0, "goroutines for core-parallel (0 = GOMAXPROCS)")
	quiet := flag.Bool("q", false, "suppress witness output")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dualcheck [-engine name] [-workers n] [-certificate [-mode m]] G.hg H.hg")
		os.Exit(2)
	}
	gf, err := os.Open(flag.Arg(0))
	exitOn(err)
	defer gf.Close()
	hf, err := os.Open(flag.Arg(1))
	exitOn(err)
	defer hf.Close()
	hs, sy, err := hgio.ReadHypergraphs(gf, hf)
	exitOn(err)
	g, h := hs[0], hs[1]

	eng, err := resolveEngine(*engineName, *workers)
	exitOn(err)
	var m dualspace.SpaceMode
	if *certificate {
		m, err = parseMode(*mode)
		exitOn(err)
	}
	res, err := dualspace.ExplainWith(context.Background(), g, h, dualspace.Options{Engine: eng})
	exitOn(err)
	if *certificate {
		runSpace(g, h, res, m, sy, *quiet)
		return
	}
	report(res.Dual, describe(res, sy), *quiet)
}

// resolveEngine maps the -engine / -workers flags to an engine. -workers
// applies only to core-parallel; asking for it on another engine is an
// error rather than a silent fallback.
func resolveEngine(name string, workers int) (dualspace.Engine, error) {
	if workers == 0 {
		return dualspace.EngineByName(name)
	}
	if name != "core-parallel" {
		return nil, errors.New("-workers applies only to -engine core-parallel")
	}
	return dualspace.NewParallelEngine(workers), nil
}

// runSpace is the certificate-search path: the engine's verdict res
// settles the preconditions, then the space-bounded fail-path search runs
// with a workspace meter.
func runSpace(g, h *dualspace.Hypergraph, res *core.Result, m dualspace.SpaceMode, sy *hgio.Symbols, quiet bool) {
	if !res.Dual && res.Reason != dualspace.ReasonNewTransversal {
		report(false, describe(res, sy), quiet)
		return
	}
	meter := dualspace.NewSpaceMeter()
	pi, w, found, err := dualspace.FailCertificate(g, h, m, meter)
	exitOn(err)
	detail := fmt.Sprintf("peak workspace %d bits (%s mode)", meter.Peak(), m)
	if found {
		detail = fmt.Sprintf("certificate %v, witness %s, %s", pi, names(w, sy), detail)
	}
	report(!found, detail, quiet)
}

func describe(res *core.Result, sy *hgio.Symbols) string {
	if res.Dual {
		return ""
	}
	s := res.Reason.String()
	if res.Reason == dualspace.ReasonNewTransversal {
		s += ": " + names(res.Witness, sy)
	}
	return s
}

func names(set dualspace.Set, sy *hgio.Symbols) string {
	out := "{"
	first := true
	set.ForEach(func(v int) bool {
		if !first {
			out += " "
		}
		first = false
		if v < sy.Len() {
			out += sy.Name(v)
		} else {
			out += fmt.Sprint(v)
		}
		return true
	})
	return out + "}"
}

func parseMode(s string) (dualspace.SpaceMode, error) {
	switch s {
	case "replay":
		return logspace.ModeReplay, nil
	case "strict":
		return logspace.ModeStrict, nil
	case "pipelined":
		return logspace.ModePipelined, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func report(dual bool, detail string, quiet bool) {
	if dual {
		fmt.Println("DUAL")
		os.Exit(0)
	}
	if quiet || detail == "" {
		fmt.Println("NOT DUAL")
	} else {
		fmt.Printf("NOT DUAL (%s)\n", detail)
	}
	os.Exit(1)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dualcheck:", err)
		os.Exit(2)
	}
}
