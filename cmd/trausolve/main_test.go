package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/smtlib"
)

// sampleScripts renders a handful of bench instances (including
// string-number conversion ones) to SMT-LIB text.
func sampleScripts(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, suite := range append(bench.Table1Suites(2), bench.Table2Suites(2)...) {
		for i, inst := range suite.Instances {
			if i > 0 {
				break // one instance per suite keeps the test fast
			}
			src, err := smtlib.Write(inst.Build())
			if err != nil {
				t.Fatalf("%s/%s: %v", suite.Name, inst.Name, err)
			}
			out[suite.Name+"_"+inst.Name] = src
		}
	}
	return out
}

func solveOnce(t *testing.T, file string) (string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-model", file}, strings.NewReader(""), &stdout, &stderr)
	if code != 0 && code != 3 {
		t.Fatalf("run(%s) = %d, stderr: %s", file, code, stderr.String())
	}
	return stdout.String(), code
}

// TestSolveDeterministic solves every sample instance twice and
// requires byte-identical output: status line and printed model must
// not depend on map iteration order anywhere in the pipeline.
func TestSolveDeterministic(t *testing.T) {
	dir := t.TempDir()
	for name, src := range sampleScripts(t) {
		file := filepath.Join(dir, name+".smt2")
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		first, code1 := solveOnce(t, file)
		second, code2 := solveOnce(t, file)
		if first != second || code1 != code2 {
			t.Errorf("%s: nondeterministic output\nfirst  (%d):\n%s\nsecond (%d):\n%s",
				name, code1, first, code2, second)
		}
	}
}

func TestRunStdin(t *testing.T) {
	const script = "(set-logic QF_SLIA)\n(declare-fun x () String)\n" +
		"(assert (= x \"ab\"))\n(check-sat)\n"
	var stdout, stderr bytes.Buffer
	code := run([]string{"-"}, strings.NewReader(script), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "sat") {
		t.Fatalf("want sat, got %q", stdout.String())
	}
	if !strings.Contains(stdout.String(), `x = "ab"`) {
		t.Fatalf("model missing: %q", stdout.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Fatalf("no args: code %d, want 2", code)
	}
	if code := run([]string{"does-not-exist.smt2"}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Fatalf("missing file: code %d, want 1", code)
	}
	if code := run([]string{"-"}, strings.NewReader("(assert"), &stdout, &stderr); code != 1 {
		t.Fatalf("parse error: code %d, want 1", code)
	}
	if code := run([]string{"-"}, strings.NewReader("(set-logic QF_SLIA)\n"), &stdout, &stderr); code != 2 {
		t.Fatalf("no check-sat: code %d, want 2", code)
	}
	sat := `(declare-fun x () String)(assert (= x "a"))(check-sat)`
	for _, flags := range [][]string{
		{"-parallel=2"},
		{"-incremental=false"},
		{"-portfolio", "-backends", "refine-fresh"},
	} {
		if code := run(append(flags, "-"), strings.NewReader(sat), &stdout, &stderr); code != 2 {
			t.Fatalf("%v: code %d, want 2", flags, code)
		}
	}
}
