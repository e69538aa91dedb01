package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"abw/internal/netjson"
)

func TestRunSummary(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nodes", "10", "-seed", "3"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"nodes: 10", "link rate histogram", "degree"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestRunDot(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nodes", "5", "-dot"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.HasPrefix(s, "digraph abw {") || !strings.Contains(s, "pos=") {
		t.Errorf("not Graphviz output:\n%s", s)
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b, errOut bytes.Buffer
	if code := run([]string{"-seed", "9"}, &a, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	if code := run([]string{"-seed", "9"}, &b, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	if a.String() != b.String() {
		t.Error("same seed produced different output")
	}
}

func TestRunBadArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nodes", "0"}, &out, &errOut); code != 1 {
		t.Errorf("zero nodes exit = %d, want 1", code)
	}
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}

func TestRunSpecPipesIntoSolver(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nodes", "6", "-seed", "1", "-spec"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	spec, err := netjson.ParseSpec(&out)
	if err != nil {
		t.Fatalf("emitted spec does not parse: %v", err)
	}
	if len(spec.Nodes) != 6 {
		t.Errorf("spec has %d nodes, want 6", len(spec.Nodes))
	}
	if spec.Query.Src == nil || spec.Query.Dst == nil {
		t.Fatal("spec query missing endpoints")
	}
	// The emitted spec must be directly solvable (or fail only with "no
	// route" on an unlucky draw — seed 1 is connected).
	if _, err := netjson.SolveContext(context.Background(), spec); err != nil {
		t.Errorf("emitted spec not solvable: %v", err)
	}
}
