// Package clitest runs end-to-end tests of the command-line tools: each
// binary is built once with the go tool and exercised against real files.
package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dualspace-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"dualcheck", "transversals", "mineborders", "keyscan", "coteriecheck", "hggen", "dualbench", "dualserved", "dualload"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "dualspace/cmd/"+tool)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/clitest -> repo root
}

// run executes a built tool and returns stdout+stderr and the exit code.
func run(t *testing.T, tool string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", tool, err)
	}
	return string(out), code
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// dualcheckRuns are the ways dualcheck decides: every engine by name, and
// the fail-path certificate search behind the default engine.
var dualcheckRuns = [][]string{
	{"-engine", "portfolio"}, {"-engine", "core"}, {"-engine", "core-parallel"},
	{"-engine", "fk-a"}, {"-engine", "fk-b"}, {"-engine", "logspace"},
	{"-engine", "core-parallel", "-workers", "2"},
	{"-certificate"},
}

func TestDualcheckDualPair(t *testing.T) {
	g := writeFile(t, "g.hg", "a b\nc d\n")
	h := writeFile(t, "h.hg", "a c\na d\nb c\nb d\n")
	for _, flags := range dualcheckRuns {
		out, code := run(t, "dualcheck", append(flags, g, h)...)
		if code != 0 || !strings.Contains(out, "DUAL") || strings.Contains(out, "NOT DUAL") {
			t.Errorf("%v: code=%d out=%q", flags, code, out)
		}
	}
}

func TestDualcheckNonDual(t *testing.T) {
	g := writeFile(t, "g.hg", "a b\nc d\n")
	h := writeFile(t, "h.hg", "a c\na d\nb c\n")
	for _, flags := range dualcheckRuns {
		out, code := run(t, "dualcheck", append(flags, g, h)...)
		if code != 1 || !strings.Contains(out, "NOT DUAL") {
			t.Errorf("%v: code=%d out=%q", flags, code, out)
		}
	}
	// The BM verdict names the witness with original vertex names.
	out, _ := run(t, "dualcheck", g, h)
	if !strings.Contains(out, "b") || !strings.Contains(out, "d") {
		t.Errorf("witness not named: %q", out)
	}
	// The certificate search reports the fail path and its workspace.
	out, _ = run(t, "dualcheck", "-certificate", "-mode", "strict", g, h)
	if !strings.Contains(out, "certificate [") || !strings.Contains(out, "peak workspace") {
		t.Errorf("-certificate: no certificate reported: %q", out)
	}
}

func TestDualcheckEngineFlag(t *testing.T) {
	g := writeFile(t, "g.hg", "a b\nc d\n")
	h := writeFile(t, "h.hg", "a c\na d\nb c\nb d\n")
	for _, flags := range [][]string{
		{"-engine", "quantum"},
		{"-workers", "2"},
		{"-engine", "core", "-workers", "2"},
		{"-certificate", "-mode", "lazy"},
	} {
		if out, code := run(t, "dualcheck", append(flags, g, h)...); code != 2 {
			t.Errorf("%v accepted: code=%d out=%q", flags, code, out)
		}
	}
}

func TestDualcheckErrors(t *testing.T) {
	g := writeFile(t, "g.hg", "a b\n")
	if _, code := run(t, "dualcheck", g); code != 2 {
		t.Error("missing argument not rejected")
	}
	if _, code := run(t, "dualcheck", g, filepath.Join(t.TempDir(), "missing.hg")); code != 2 {
		t.Error("missing file not rejected")
	}
	bad := writeFile(t, "bad.hg", "a\na b\n")
	if out, code := run(t, "dualcheck", bad, g); code != 2 {
		t.Errorf("non-simple input not rejected: %q", out)
	}
}

func TestTransversalsMethodsAgree(t *testing.T) {
	h := writeFile(t, "h.hg", "a b\nc d\ne f\n")
	var outputs []string
	for _, method := range []string{"dfs", "berge", "oracle"} {
		out, code := run(t, "transversals", "-method", method, h)
		if code != 0 {
			t.Fatalf("method %s failed: %s", method, out)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 8 {
			t.Fatalf("method %s: %d transversals, want 8", method, len(lines))
		}
		outputs = append(outputs, canonical(out))
	}
	if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
		t.Error("methods disagree on output set")
	}
	out, _ := run(t, "transversals", "-count", h)
	if strings.TrimSpace(out) != "8" {
		t.Errorf("-count = %q", out)
	}
}

func canonical(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, l := range lines {
		fields := strings.Fields(l)
		for a := 0; a < len(fields); a++ {
			for b := a + 1; b < len(fields); b++ {
				if fields[b] < fields[a] {
					fields[a], fields[b] = fields[b], fields[a]
				}
			}
		}
		lines[i] = strings.Join(fields, " ")
	}
	for a := 0; a < len(lines); a++ {
		for b := a + 1; b < len(lines); b++ {
			if lines[b] < lines[a] {
				lines[a], lines[b] = lines[b], lines[a]
			}
		}
	}
	return strings.Join(lines, "\n")
}

func TestMineborders(t *testing.T) {
	data := writeFile(t, "tx.txt", "milk bread\nmilk bread\nmilk bread\nbeer chips\nbeer chips\nbeer chips\nmilk beer\n")
	outD, code := run(t, "mineborders", "-z", "2", "-method", "dualize", data)
	if code != 0 {
		t.Fatalf("dualize failed: %s", outD)
	}
	outA, code := run(t, "mineborders", "-z", "2", "-method", "apriori", data)
	if code != 0 {
		t.Fatalf("apriori failed: %s", outA)
	}
	if !strings.Contains(outD, "milk bread") || !strings.Contains(outD, "beer chips") {
		t.Errorf("expected maximal frequent sets missing: %q", outD)
	}
	// The two methods print identical border families (modulo the trailing
	// duality-check count line).
	if stripComments(outD) != stripComments(outA) {
		t.Errorf("methods disagree:\n%q\nvs\n%q", outD, outA)
	}
	if _, code := run(t, "mineborders", "-z", "99", data); code != 2 {
		t.Error("out-of-range threshold accepted")
	}
}

func stripComments(s string) string {
	var keep []string
	for _, l := range strings.Split(s, "\n") {
		if !strings.HasPrefix(l, "#") && strings.TrimSpace(l) != "" {
			keep = append(keep, l)
		}
	}
	return canonical(strings.Join(keep, "\n"))
}

func TestKeyscan(t *testing.T) {
	csv := writeFile(t, "rel.csv", "name,dept,room\nann,sales,101\nbob,sales,102\ncyd,eng,101\n")
	out, code := run(t, "keyscan", csv)
	if code != 0 || !strings.Contains(out, "minimal keys") {
		t.Fatalf("keyscan: code=%d %q", code, out)
	}
	// name alone is a key.
	if !strings.Contains(out, "name") {
		t.Errorf("expected key 'name': %q", out)
	}
	inc, code := run(t, "keyscan", "-incremental", csv)
	if code != 0 || stripComments(inc) != stripComments(out) {
		t.Errorf("incremental disagrees: %q vs %q", inc, out)
	}
	// Additional-key flow: claim only one key, expect another.
	known := writeFile(t, "known.hg", "name\n")
	more, code := run(t, "keyscan", "-known", known, csv)
	if code != 1 || !strings.Contains(more, "ADDITIONAL KEY") {
		t.Errorf("additional key not found: code=%d %q", code, more)
	}
	// Complete claims.
	allKeys := writeFile(t, "all.hg", extractKeys(out))
	done, code := run(t, "keyscan", "-known", allKeys, csv)
	if code != 0 || !strings.Contains(done, "COMPLETE") {
		t.Errorf("complete claim rejected: code=%d %q", code, done)
	}
}

func extractKeys(out string) string {
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "#") && strings.TrimSpace(l) != "" {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n") + "\n"
}

func TestCoteriecheck(t *testing.T) {
	maj := writeFile(t, "maj.hg", "a b\nb c\na c\n")
	out, code := run(t, "coteriecheck", maj)
	if code != 0 || !strings.Contains(out, "NON-DOMINATED") {
		t.Errorf("majority: code=%d %q", code, out)
	}
	star := writeFile(t, "star.hg", "hub a\nhub b\nhub c\n")
	out, code = run(t, "coteriecheck", "-improve", star)
	if code != 1 || !strings.Contains(out, "DOMINATED") || !strings.Contains(out, "hub") {
		t.Errorf("star: code=%d %q", code, out)
	}
	invalid := writeFile(t, "bad.hg", "a\nb\n")
	if _, code := run(t, "coteriecheck", invalid); code != 2 {
		t.Error("non-intersecting quorums accepted")
	}
}

func TestHggenAndPipeline(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "pair")
	out, code := run(t, "hggen", "-family", "matching", "-k", "3", "-out", prefix)
	if code != 0 {
		t.Fatalf("hggen: %s", out)
	}
	if _, code := run(t, "dualcheck", prefix+".g.hg", prefix+".h.hg"); code != 0 {
		t.Error("generated pair not dual")
	}
	// Perturbed pair must be rejected.
	bad := filepath.Join(dir, "bad")
	if out, code := run(t, "hggen", "-family", "matching", "-k", "3", "-drop", "2", "-out", bad); code != 0 {
		t.Fatalf("hggen -drop: %s", out)
	}
	if _, code := run(t, "dualcheck", bad+".g.hg", bad+".h.hg"); code != 1 {
		t.Error("perturbed pair accepted as dual")
	}
	// Other families generate checkable pairs too.
	for _, fam := range [][]string{
		{"-family", "threshold", "-n", "5", "-k", "2"},
		{"-family", "majority", "-n", "5"},
		{"-family", "selfdual", "-k", "2"},
		{"-family", "random", "-n", "7", "-m", "4", "-seed", "3"},
	} {
		p := filepath.Join(dir, fam[1])
		args := append(fam, "-out", p)
		if out, code := run(t, "hggen", args...); code != 0 {
			t.Fatalf("hggen %v: %s", fam, out)
		}
		if _, code := run(t, "dualcheck", p+".g.hg", p+".h.hg"); code != 0 {
			t.Errorf("family %s: generated pair not dual", fam[1])
		}
	}
}

func TestDualbenchList(t *testing.T) {
	out, code := run(t, "dualbench", "-list")
	if code != 0 || !strings.Contains(out, "E1") || !strings.Contains(out, "E14") {
		t.Fatalf("dualbench -list: code=%d %q", code, out)
	}
	out, code = run(t, "dualbench", "-run", "E2,E3")
	if code != 0 || !strings.Contains(out, "result: PASS") {
		t.Fatalf("dualbench -run: code=%d\n%s", code, out)
	}
	if _, code = run(t, "dualbench", "-run", "E99"); code != 2 {
		t.Error("unknown experiment accepted")
	}
}

func TestDualbenchEngineRows(t *testing.T) {
	// One cheap experiment keeps the run fast; the engine table must carry a
	// row per registry engine, all conforming to ground truth.
	out, code := run(t, "dualbench", "-engine", "all", "-run", "E2")
	if code != 0 {
		t.Fatalf("dualbench -engine all: code=%d\n%s", code, out)
	}
	for _, eng := range []string{"portfolio", "core", "core-parallel", "fk-a", "fk-b", "logspace"} {
		// Rows are left-aligned at the line start and padded with spaces, so
		// anchor the match to keep "core" from being satisfied by the
		// "core-parallel" row.
		if !strings.Contains(out, "\n"+eng+" ") {
			t.Errorf("engine table missing %s:\n%s", eng, out)
		}
	}
	out, code = run(t, "dualbench", "-engine", "fk-a", "-run", "E2", "-json")
	if code != 0 || !strings.Contains(out, `"engines"`) || !strings.Contains(out, `"fk-a"`) {
		t.Fatalf("dualbench -engine -json: code=%d\n%s", code, out)
	}
	if _, code = run(t, "dualbench", "-engine", "quantum", "-run", "E2"); code != 2 {
		t.Error("unknown engine accepted")
	}
}
