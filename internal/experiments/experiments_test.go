package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig shrinks every dataset far enough that each experiment finishes
// in test time while still exercising the full pipeline.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		Out:   buf,
		Scale: 128,
		Ps:    []float64{0.7, 0.3},
	}
}

func TestRegistryCompleteAndUnique(t *testing.T) {
	all := All()
	wantIDs := []string{
		"fig4", "fig5ab", "fig5cd", "fig7", "fig8", "fig9", "fig10",
		"t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10",
		"ab1", "ab4", "ab5", "ab6", "ab8", "noise",
		"headline", "quality", "memory", "baselines", "stream",
	}
	if len(all) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(wantIDs))
	}
	seen := map[string]bool{}
	for i, e := range all {
		if e.ID != wantIDs[i] {
			t.Errorf("registry[%d] = %q, want %q", i, e.ID, wantIDs[i])
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q missing title or runner", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("t3")
	if err != nil {
		t.Fatalf("ByID(t3): %v", err)
	}
	if !strings.Contains(e.Title, "Table III") {
		t.Errorf("t3 title = %q", e.Title)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.scale() != 16 {
		t.Errorf("default scale = %d, want 16", c.scale())
	}
	if got := c.ps(); len(got) != 9 || got[0] != 0.9 || got[8] != 0.1 {
		t.Errorf("default ps = %v", got)
	}
}

func TestTablePrinter(t *testing.T) {
	var buf bytes.Buffer
	tbl := newTable("Title", "a", "bb")
	tbl.addRow("1", "2")
	tbl.addRow("333", "4")
	if err := tbl.render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Title", "a", "bb", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestEachExperimentRuns smoke-tests every registered experiment at tiny
// scale: it must complete without error and produce non-empty output.
func TestEachExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			cfg := tinyConfig(&buf)
			if err := e.Run(cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestT3SkipsUDSOnLiveJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Ps = []float64{0.5}
	if err := runT3(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	idx := strings.Index(out, "com-LiveJournal")
	if idx < 0 {
		t.Fatal("no LiveJournal section")
	}
	if !strings.Contains(out[idx:], "-") {
		t.Error("LiveJournal rows should mark UDS as skipped with '-'")
	}
}
