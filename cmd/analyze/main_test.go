package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := graph.WriteEdgeListFile(path, gen.BarabasiAlbert(60, 2, 7), nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllTasks(t *testing.T) {
	path := writeTestGraph(t)
	var buf bytes.Buffer
	err := run(&buf, path, "degree,sp,hopplot,cc,topk,components,betweenness,closeness,structure", 10, 0, 1, 0, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"vertex degree distribution", "shortest paths", "hop-plot",
		"clustering coefficient", "top-10%", "connected components",
		"betweenness centrality", "closeness centrality", "assortativity",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "", "degree", 10, 0, 1, 0, 0, nil); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run(&buf, filepath.Join(t.TempDir(), "nope.txt"), "degree", 10, 0, 1, 0, 0, nil); err == nil {
		t.Error("missing file accepted")
	}
	path := writeTestGraph(t)
	if err := run(&buf, path, "no-such-task", 10, 0, 1, 0, 0, nil); err == nil {
		t.Error("unknown task accepted")
	}
}

func TestRunBinaryInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.esc")
	if err := graph.SaveFile(path, gen.BarabasiAlbert(50, 2, 8), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, path, "degree,components", 10, 0, 1, 0, 0, nil); err != nil {
		t.Fatalf("packed input: %v", err)
	}
	if !strings.Contains(buf.String(), "|V|=50") {
		t.Errorf("packed graph not loaded:\n%s", buf.String())
	}
}

func TestRunSampledSources(t *testing.T) {
	path := writeTestGraph(t)
	var buf bytes.Buffer
	if err := run(&buf, path, "sp,betweenness", 10, 16, 3, 0, 0, nil); err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if !strings.Contains(buf.String(), "shortest paths") {
		t.Error("sampled output incomplete")
	}
}

// TestRunBatchBitIdentical pins the -batch contract end to end: the MS-BFS
// batch width is a performance knob, so the centrality task outputs must be
// byte-identical at every width — including the 0 default and out-of-range
// values, which clamp to the full 64-wide word.
func TestRunBatchBitIdentical(t *testing.T) {
	path := writeTestGraph(t)
	const tasks = "betweenness,closeness"
	var want bytes.Buffer
	if err := run(&want, path, tasks, 10, 0, 3, 2, 0, nil); err != nil {
		t.Fatalf("batch=0 run: %v", err)
	}
	for _, batch := range []int{1, 8, 64, 999} {
		var got bytes.Buffer
		if err := run(&got, path, tasks, 10, 0, 3, 2, batch, nil); err != nil {
			t.Fatalf("batch=%d run: %v", batch, err)
		}
		if got.String() != want.String() {
			t.Errorf("-batch %d output differs from -batch 0:\n%s\nvs\n%s", batch, got.String(), want.String())
		}
	}
}

// TestRunSampledCloseness pins that -sources reaches the closeness task:
// the sampled estimator must run, and its scores must differ from the exact
// run's (same graph, deterministic seed), while -sources >= |V| degenerates
// to the exact computation.
func TestRunSampledCloseness(t *testing.T) {
	path := writeTestGraph(t)
	var exact, sampled, over bytes.Buffer
	if err := run(&exact, path, "closeness", 10, 0, 3, 0, 0, nil); err != nil {
		t.Fatalf("exact run: %v", err)
	}
	if err := run(&sampled, path, "closeness", 10, 16, 3, 0, 0, nil); err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if err := run(&over, path, "closeness", 10, 60, 3, 0, 0, nil); err != nil {
		t.Fatalf("oversampled run: %v", err)
	}
	if !strings.Contains(sampled.String(), "closeness centrality") {
		t.Fatalf("sampled output incomplete:\n%s", sampled.String())
	}
	if sampled.String() == exact.String() {
		t.Error("-sources=16 produced byte-identical output to exact closeness; sampling not wired through")
	}
	if over.String() != exact.String() {
		t.Errorf("-sources=|V| should match exact closeness output\nexact:\n%s\nover:\n%s", exact.String(), over.String())
	}
}
